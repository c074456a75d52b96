//! What the machine could supply: every number the harness prints is
//! read next to these, so a speed-up the host had no cores for is
//! visible as such.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The host block carried by every output.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    /// Pool workers `W`. With the supervising caller that makes `W + 1`
    /// runnable threads.
    pub workers: usize,
    /// Throughput of two spinning threads ÷ throughput of one, measured
    /// when the run starts: ~2 on two free cores, ~1 when the second
    /// core is not really there.
    pub parallel_capacity: f64,
    pub git_rev: String,
}

impl Host {
    /// `W + 1 > nproc`: the pipelined path is time-sliced, so its wall
    /// clock is a lower bound on what real cores would give.
    pub fn oversubscribed(&self) -> bool {
        self.workers + 1 > self.nproc
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// `W = max(1, nproc − 1)`: the caller supervises inline, so the process
/// never has more runnable threads than cores (except on one core, where
/// nothing else is possible and the output says `oversubscribed`).
pub fn default_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// Spins on `threads` threads for about `window` and returns iterations
/// per second, summed over the threads.
fn spin_throughput(threads: usize, window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let (total, elapsed): (u64, Duration) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, barrier) = (&stop, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x = crate::ladder::spin(x, 256);
                        n += 1;
                    }
                    std::hint::black_box(x);
                    n
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        while started.elapsed() < window {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        // This thread may wake late when the spinners hold every core, so
        // divide by the time that really passed, not by `window`.
        let elapsed = started.elapsed();
        (
            handles
                .into_iter()
                .map(|h| h.join().expect("spin thread"))
                .sum(),
            elapsed,
        )
    });
    total as f64 / elapsed.as_secs_f64()
}

pub fn parallel_capacity() -> f64 {
    // One thread before and after the pair, so drift between the windows
    // does not read as capacity.
    let window = Duration::from_millis(50);
    let before = spin_throughput(1, window);
    let two = spin_throughput(2, window);
    let after = spin_throughput(1, window);
    two / ((before + after) / 2.0).max(1.0)
}

/// The commit of the checkout, read from `.git` without spawning
/// anything; `unknown` outside a git checkout (the driver's case).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn probe(workers: usize) -> Host {
    Host {
        nproc: nproc(),
        workers,
        parallel_capacity: parallel_capacity(),
        git_rev: git_rev(),
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_leave_a_core_for_the_supervisor() {
        assert_eq!(default_workers(1), 1);
        assert_eq!(default_workers(2), 1);
        assert_eq!(default_workers(8), 7);
        let host = |nproc, workers| Host {
            nproc,
            workers,
            parallel_capacity: 1.0,
            git_rev: String::new(),
        };
        assert!(!host(2, 1).oversubscribed());
        assert!(host(2, 2).oversubscribed());
        assert!(host(1, 1).oversubscribed());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
