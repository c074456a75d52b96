//! Sequential-equivalence property for [`ConcurrentVersionedMemory`]:
//! for ANY thread interleaving of version open/read/write activity,
//! driving the commit frontier in order with squash-and-replay must
//! leave exactly the committed state of running the versions' programs
//! in program order — the same guarantee the paper's versioned memory
//! hardware gives the sequential programming model.
//!
//! Each generated case is a per-version straight-line program whose
//! writes *depend on reads* (`dst = src + delta`), so a stale forwarded
//! or too-early read that escaped conflict detection would corrupt the
//! final state rather than vanish. Every case is run (a) concurrently,
//! one real thread per version, with an in-order commit loop that rolls
//! back and re-executes squashed versions — repeated at shard counts
//! {1, 4, 16, 64} so the configurable shard knob cannot silently break
//! linearized equivalence, and again behind a generated prefix of
//! versions opened and committed one at a time, as the executor issues
//! a governor-degraded stretch (see [`Prefix`]) — and (b)
//! single-threaded in program order, where nothing may ever squash. All
//! must land on the state of the model interpreter ([`interpret`]): the
//! reference is twenty lines over a flat map, not a second memory.
//! Deep chains — dozens of versions live on a handful of addresses —
//! are driven the executor's way instead, by [`check_pipelined`].

use proptest::prelude::*;
use seqpar_specmem::{Addr, CommitError, ConcurrentVersionedMemory, VersionId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

/// One memory operation of a version's program.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Tracked read (its value feeds nothing, but its recording must
    /// not cause spurious state either).
    Read { addr: u64 },
    /// Store a constant.
    Put { addr: u64, val: u64 },
    /// `dst = read(src) + delta` — the read-dependent write that makes
    /// stale reads observable in committed state.
    Accum { src: u64, dst: u64, delta: u64 },
}

impl Op {
    /// The same operation on addresses folded into `0..addrs`.
    fn within(self, addrs: u64) -> Self {
        match self {
            Op::Read { addr } => Op::Read { addr: addr % addrs },
            Op::Put { addr, val } => Op::Put {
                addr: addr % addrs,
                val,
            },
            Op::Accum { src, dst, delta } => Op::Accum {
                src: src % addrs,
                dst: dst % addrs,
                delta,
            },
        }
    }
}

fn op_strategy(addrs: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..addrs).prop_map(|addr| Op::Read { addr }),
        (0..addrs, 0..5u64).prop_map(|(addr, val)| Op::Put { addr, val }),
        (0..addrs, 0..addrs, 1..4u64).prop_map(|(src, dst, delta)| Op::Accum { src, dst, delta }),
    ]
}

/// Interprets `programs` in program order against a flat map — the
/// sequential semantics the memory must reproduce.
fn interpret(programs: &[Vec<Op>]) -> HashMap<u64, u64> {
    let mut state: HashMap<u64, u64> = HashMap::new();
    for program in programs {
        for op in program {
            match *op {
                Op::Read { .. } => {}
                Op::Put { addr, val } => {
                    state.insert(addr, val);
                }
                Op::Accum { src, dst, delta } => {
                    let v = state.get(&src).copied().unwrap_or(0) + delta;
                    state.insert(dst, v);
                }
            }
        }
    }
    state
}

/// Runs one attempt of version `v`'s program (the version must not be
/// active yet).
fn run_attempt(mem: &ConcurrentVersionedMemory, v: VersionId, program: &[Op]) {
    mem.begin(v);
    run_ops(mem, v, program);
}

/// Issues `program`'s operations from the already-open version `v`.
fn run_ops(mem: &ConcurrentVersionedMemory, v: VersionId, program: &[Op]) {
    for op in program {
        match *op {
            Op::Read { addr } => {
                mem.read(v, Addr(addr));
            }
            Op::Put { addr, val } => {
                mem.write(v, Addr(addr), val);
            }
            Op::Accum { src, dst, delta } => {
                let got = mem.read(v, Addr(src));
                mem.write(v, Addr(dst), got + delta);
            }
        }
    }
}

/// Shard counts the concurrent check is repeated across: the degenerate
/// single-shard lock, the default, and an over-sharded extreme. The
/// shard knob must never change linearized equivalence, only contention.
const SHARD_COUNTS: &[usize] = &[1, 4, 16, 64];

/// How a case's leading versions are issued before the rest race: the
/// executor's governor-degraded stretch followed by a re-probe.
#[derive(Clone, Copy, Debug)]
struct Prefix {
    /// This many versions (fewer than the case has) run one at a time,
    /// each an ordinary version — `begin`, the ops, `try_commit` — that
    /// commits before the next one opens.
    len: usize,
    /// The first racing version is opened before the prefix runs, as a
    /// pre-collapse straggler would be, so every prefix version opens
    /// and commits with a later version live.
    straggler: bool,
}

impl Prefix {
    const NONE: Self = Self {
        len: 0,
        straggler: false,
    };
}

/// Issues `prefix`, races one thread per remaining version against
/// `mem`, then drives the in-order commit frontier with squash-and-replay
/// and checks the committed state against the model interpreter's.
/// Panics on divergence (the vendored proptest stub reports failures by
/// panic).
fn check_concurrent(
    mem: &ConcurrentVersionedMemory,
    programs: &[Vec<Op>],
    expected: &HashMap<u64, u64>,
    prefix: Prefix,
) {
    let (head, racing) = programs.split_at(prefix.len);
    assert!(
        !racing.is_empty(),
        "the prefix must leave a version to race"
    );
    let first_racing = VersionId(prefix.len as u64);
    if prefix.straggler {
        mem.begin(first_racing);
    }
    for (i, program) in head.iter().enumerate() {
        let v = VersionId(i as u64);
        run_attempt(mem, v, program);
        mem.try_commit(v).expect("an in-order version commits");
        assert_eq!(mem.active_count(), usize::from(prefix.straggler), "{v}");
    }
    let barrier = Barrier::new(racing.len());
    std::thread::scope(|scope| {
        for (i, program) in racing.iter().enumerate() {
            let barrier = &barrier;
            let v = VersionId((prefix.len + i) as u64);
            scope.spawn(move || {
                barrier.wait();
                if prefix.straggler && v == first_racing {
                    run_ops(mem, v, program);
                } else {
                    run_attempt(mem, v, program);
                }
            });
        }
    });
    // In-order commit frontier with squash-and-replay, exactly the
    // executor's protocol.
    let mut replays = 0u64;
    for (i, program) in programs.iter().enumerate().skip(prefix.len) {
        let v = VersionId(i as u64);
        loop {
            match mem.try_commit(v) {
                Ok(()) => break,
                Err(CommitError::Squashed { .. }) => {
                    mem.rollback(v);
                    replays += 1;
                    assert!(replays <= 64, "squash/replay failed to converge");
                    run_attempt(mem, v, program);
                }
                Err(e) => panic!("commit of {v} failed: {e}"),
            }
        }
    }
    assert_eq!(mem.active_count(), 0);
    for (addr, val) in expected {
        assert_eq!(
            mem.committed(Addr(*addr)).unwrap_or(0),
            *val,
            "concurrent state diverged at {} (shards {}, {:?}) running {:?}",
            addr,
            mem.shard_count(),
            prefix,
            programs
        );
    }
}

/// The longest frontier run one commit takes, as the executor's.
const COMMIT_RUN: usize = 16;

/// Drives `programs` the executor's way: two worker threads take
/// versions in id order and run them, while this thread commits the
/// finished prefix through `commit_check_batch` / `try_commit_batch` in
/// runs of up to [`COMMIT_RUN`], rolling back and replaying (at the
/// frontier, where nothing can squash it again) every version a
/// conflict squashed. Panics if the committed state is not `expected`.
fn check_pipelined(
    mem: &ConcurrentVersionedMemory,
    programs: &[Vec<Op>],
    expected: &HashMap<u64, u64>,
) {
    let next = AtomicUsize::new(0);
    let done: Vec<AtomicBool> = programs.iter().map(|_| AtomicBool::new(false)).collect();
    let barrier = Barrier::new(2);
    let mut replays = 0;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                barrier.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(program) = programs.get(i) else {
                        break;
                    };
                    run_attempt(mem, VersionId(i as u64), program);
                    done[i].store(true, Ordering::Release);
                }
            });
        }
        let mut frontier = 0;
        while frontier < programs.len() {
            let run: Vec<VersionId> = (frontier..programs.len())
                .take(COMMIT_RUN)
                .take_while(|&i| done[i].load(Ordering::Acquire))
                .map(|i| VersionId(i as u64))
                .collect();
            if run.is_empty() {
                std::thread::yield_now();
                continue;
            }
            let (ready, stopped) = mem.commit_check_batch(&run);
            let (published, left) = mem.try_commit_batch(&run[..ready]);
            assert_eq!(
                (published.len(), left),
                (ready, None),
                "a checked run commits"
            );
            frontier += ready;
            match stopped {
                None => {}
                Some(CommitError::Squashed { .. }) => {
                    let v = run[ready];
                    mem.rollback(v);
                    replays += 1;
                    run_attempt(mem, v, &programs[frontier]);
                }
                Some(e) => panic!("commit of {} failed: {e}", run[ready]),
            }
        }
    });
    assert!(
        replays <= programs.len(),
        "a replay at the frontier squashed"
    );
    assert_eq!(mem.active_count(), 0);
    for (addr, val) in expected {
        assert_eq!(
            mem.committed(Addr(*addr)).unwrap_or(0),
            *val,
            "pipelined state diverged at {} (shards {}) running {:?}",
            addr,
            mem.shard_count(),
            programs
        );
    }
}

/// The generated case behind this suite's one-in-eleven flake, kept as
/// a fixed input. Version 2 can compute `a1 = 4` from version 1's
/// transient `a0 = 2` and forward it; version 3 reads that 4, derives
/// `a3` and `a0` from it, and ends with `a1 = 4` of its own. When
/// version 2 was rolled back, version 3's buffered 4 used to vouch for
/// the read it had made, and the derived values committed.
#[test]
fn captured_missed_squash_commits_program_order_state() {
    // r(x): read ax; p(x, c): ax = c; a(x, y, d): ax = read(ay) + d.
    let r = |addr| Op::Read { addr };
    let p = |addr, val| Op::Put { addr, val };
    let a = |dst, src, delta| Op::Accum { src, dst, delta };
    let programs = vec![
        vec![p(0, 1)],
        vec![a(0, 2, 2), a(0, 1, 1), a(2, 4, 1), a(4, 4, 2)],
        vec![r(4), a(1, 0, 2), a(4, 3, 2), p(3, 3), r(3), p(4, 3)],
        vec![
            a(3, 0, 3),
            r(1),
            a(3, 1, 1),
            a(1, 1, 1),
            a(0, 1, 2),
            p(1, 4),
            a(4, 3, 2),
        ],
    ];
    let expected = interpret(&programs);
    assert_eq!(
        expected,
        HashMap::from([(0, 6), (1, 4), (2, 1), (3, 4), (4, 6)])
    );
    for &shards in SHARD_COUNTS {
        for _ in 0..64 {
            let mem = ConcurrentVersionedMemory::with_shards(shards);
            check_concurrent(&mem, &programs, &expected, Prefix::NONE);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_interleaving_commits_program_order_state(
        programs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(5), 1..8),
            2..6,
        ),
        head in any::<usize>(),
        straggler in any::<bool>(),
    ) {
        let expected = interpret(&programs);

        // (a) Concurrent: one thread per version, racing freely, then
        // again behind the generated one-at-a-time prefix — each
        // repeated at every shard count so the configurable knob can't
        // silently break linearized equivalence.
        let prefix = Prefix { len: head % programs.len(), straggler };
        for &shards in SHARD_COUNTS {
            for prefix in [Prefix::NONE, prefix] {
                let mem = ConcurrentVersionedMemory::with_shards(shards);
                check_concurrent(&mem, &programs, &expected, prefix);
            }
        }

        // (b) Driven single-threaded in program order the same memory is
        // sequential execution: nothing squashes, every commit succeeds.
        let mem = ConcurrentVersionedMemory::new();
        for (i, program) in programs.iter().enumerate() {
            let v = VersionId(i as u64);
            run_attempt(&mem, v, program);
            prop_assert_eq!(mem.try_commit(v), Ok(()));
        }
        prop_assert_eq!(mem.stats().violations, 0);
        for (addr, val) in &expected {
            prop_assert_eq!(mem.committed(Addr(*addr)).unwrap_or(0), *val);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deep chains: 16–48 versions on 2–4 addresses, so every cell
    /// carries many live writers and readers at once.
    #[test]
    fn deep_chains_commit_program_order_state_in_frontier_runs(
        programs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(4), 1..8),
            16..49,
        ),
        addrs in 2..5u64,
    ) {
        let programs: Vec<Vec<Op>> = programs
            .iter()
            .map(|program| program.iter().map(|op| op.within(addrs)).collect())
            .collect();
        let expected = interpret(&programs);
        for &shards in SHARD_COUNTS {
            let mem = ConcurrentVersionedMemory::with_shards(shards);
            check_pipelined(&mem, &programs, &expected);
        }
    }
}
