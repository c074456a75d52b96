//! Thread-safe versioned memory: the substrate the native executor
//! routes speculative state through, and the only versioned memory in
//! the workspace.
//!
//! [`ConcurrentVersionedMemory`] gives every version a privatized write
//! buffer, eagerly forwards uncommitted stores to later versions,
//! detects conflicts eagerly, applies the silent-store rule and commits
//! strictly in order. One rule decides every commit — a version commits
//! iff nothing it read was reordered past a conflicting write (Colvin's
//! parallelized sequential composition, PAPERS.md) — and it is stated
//! once, in the private `committable` routine every commit entry point
//! shares. Every operation takes `&self` and is safe to call from many
//! threads at once:
//!
//! * **One version chain per address.** Conflict is defined per
//!   variable, so the state is indexed by address: each address has one
//!   cell holding its committed value, the live versions' buffered
//!   stores to it and the live versions' first observations of it, both
//!   in version order. A lookup is a binary search in one cell; a write
//!   re-validates only the later readers of that one address. Cells are
//!   split across [`SHARD_COUNT`] shards by a multiplicative hash of the
//!   address, each behind its own mutex, so accesses to different
//!   shards never contend and a single read or write touches exactly
//!   one shard.
//! * **A global version registry** (`RwLock`) holds one handle per
//!   active version: its squashed-by mark (an atomic, so a conflicting
//!   writer in one shard can doom a version without taking any other
//!   lock), per-version operation counters and the addresses the
//!   version holds entries at. Lock order is always registry → shard,
//!   never the reverse.
//! * **Commit and rollback visit only what the version touched.** The
//!   oldest live version's entries lead every cell's lists, so commit
//!   pops them and stores the written value as the committed value, at
//!   each address the handle lists and nowhere else; it is published at
//!   once, with nothing left to reclaim. Rollback removes the version's
//!   entries the same way and squashes exactly the later readers whose
//!   inherited value changed. A cell left holding nothing is dropped.
//! * **Statistics stay exact under concurrency**: every counter in the
//!   [`MemStats`] snapshot is updated inside the operation that it
//!   counts — an access's under the shard lock it already holds, the
//!   rest in atomics.
//!
//! The intended executor protocol (one version per task attempt):
//! workers [`begin`](ConcurrentVersionedMemory::begin) a version and
//! issue [`read`](ConcurrentVersionedMemory::read)s and
//! [`write`](ConcurrentVersionedMemory::write)s while the attempt runs;
//! the in-order commit frontier calls
//! [`commit_check`](ConcurrentVersionedMemory::commit_check) — squashing
//! and [`rollback`](ConcurrentVersionedMemory::rollback)ing the version
//! on conflict — and [`try_commit`](ConcurrentVersionedMemory::try_commit)
//! to publish the write buffer when the attempt survives (the executor
//! uses their batch forms; the single-version ones are the same routine
//! at k = 1). A one-seat plan's tasks are no exception: each opens and
//! commits one ordinary version through the same frontier.

use crate::memory::{Addr, CommitError, VersionId};
use crate::stats::MemStats;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default number of address shards. Sixteen keeps contention
/// negligible for the executor's worker counts (≤ the machine's cores)
/// without oversizing the lock table; a shard sweep ({1, 4, 16, 64}
/// under 1–32 threads, PR 6) is how this default was chosen. Override
/// it with [`ConcurrentVersionedMemory::with_shards`].
pub const SHARD_COUNT: usize = 16;

/// Per-version bookkeeping that must be reachable from any shard: the
/// squashed-by mark, the attempt's operation counters and its footprint.
#[derive(Debug, Default)]
struct Handle {
    /// `1 + VersionId.0` of the squashing version, or 0.
    squashed_by: AtomicU64,
    reads: AtomicU64,
    forwards: AtomicU64,
    writes: AtomicU64,
    silent_stores: AtomicU64,
    /// Every address whose cell holds an entry of this version: all
    /// that commit and rollback visit.
    touched: Footprint,
}

impl Handle {
    fn squashed_by(&self) -> Option<VersionId> {
        match self.squashed_by.load(Ordering::Acquire) {
            0 => None,
            by => Some(VersionId(by - 1)),
        }
    }

    /// Marks the version squashed by `by` unless already doomed.
    /// Returns whether this call won the race (counts the violation).
    fn mark_squashed(&self, by: VersionId) -> bool {
        self.squashed_by
            .compare_exchange(0, by.0 + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Addresses held in a [`Footprint`]'s slots before it spills.
const FOOTPRINT_SLOTS: usize = 4;

/// The addresses a version holds cell entries at, each recorded once.
/// The first few sit in atomic slots, so recording one costs one atomic
/// add and no allocation; the rest spill to a locked list.
#[derive(Debug, Default)]
struct Footprint {
    len: AtomicUsize,
    slots: [AtomicU64; FOOTPRINT_SLOTS],
    spill: Mutex<Vec<Addr>>,
}

impl Footprint {
    fn record(&self, addr: Addr) {
        match self.slots.get(self.len.fetch_add(1, Ordering::Relaxed)) {
            Some(slot) => slot.store(addr.0, Ordering::Relaxed),
            None => self.spill.lock().push(addr),
        }
    }

    /// Every recorded address. Records happen under the registry read
    /// lock and the footprint is taken apart under its write lock, which
    /// orders every record before this.
    fn into_addrs(self) -> impl Iterator<Item = Addr> {
        let held = self.len.into_inner().min(FOOTPRINT_SLOTS);
        let slots = self.slots.into_iter().take(held);
        slots
            .map(|slot| Addr(slot.into_inner()))
            .chain(self.spill.into_inner())
    }
}

/// `(VersionId.0, value)` entries of live versions, oldest first.
type Chain = VecDeque<(u64, u64)>;

/// The index of `v`'s entry in `chain`, if it has one.
fn position(chain: &Chain, v: u64) -> Option<usize> {
    let i = chain.partition_point(|&(w, _)| w < v);
    chain.get(i).is_some_and(|&(w, _)| w == v).then_some(i)
}

/// Everything the memory knows about one address.
#[derive(Debug, Default)]
struct Cell {
    /// The newest committed store, if any has committed.
    committed: Option<u64>,
    /// Live versions' buffered stores.
    writers: Chain,
    /// Live versions' first observations: reads, and the values of
    /// elided silent stores (bets). A version that wrote first records
    /// none.
    readers: Chain,
}

impl Cell {
    /// The value the writer before `writers[i]` left, else committed
    /// state, else `0`.
    fn before(&self, i: usize) -> u64 {
        match i.checked_sub(1) {
            Some(j) => self.writers[j].1,
            None => self.committed.unwrap_or(0),
        }
    }

    /// Records `v`'s first observation unless it already has one;
    /// whether it did.
    fn observe(&mut self, v: u64, value: u64) -> bool {
        let i = self.readers.partition_point(|&(w, _)| w < v);
        if self.readers.get(i).is_some_and(|&(w, _)| w == v) {
            return false;
        }
        self.readers.insert(i, (v, value));
        true
    }

    /// The later readers whose recorded observation disagrees with what
    /// they now inherit, after the store at `v` changed to leave
    /// `value`: those after `v` up to and including the next writer,
    /// which all inherit `v`'s slot in the chain. A recorded observation
    /// is by construction an inherited read, so this — not what the
    /// reader sees now, which its own later store would shadow — is
    /// what it is held to.
    fn stale_readers(&self, v: u64, value: u64) -> impl Iterator<Item = u64> + '_ {
        let next = self.writers.partition_point(|&(w, _)| w <= v);
        let last = self.writers.get(next).map_or(u64::MAX, |&(w, _)| w);
        let first = self.readers.partition_point(|&(w, _)| w <= v);
        self.readers
            .range(first..)
            .take_while(move |&&(w, _)| w <= last)
            .filter(move |&&(_, observed)| observed != value)
            .map(|&(w, _)| w)
    }

    fn is_empty(&self) -> bool {
        self.committed.is_none() && self.writers.is_empty() && self.readers.is_empty()
    }
}

/// Hashes an address with one multiply and fold instead of SipHash.
/// Addresses come from the programs the executor runs, not from an
/// adversary, and slot addresses are small consecutive integers the
/// multiply spreads over the whole word; the fold brings the high half
/// down to the low bits the map indexes by.
#[derive(Debug, Default)]
struct AddrHasher(u64);

/// The one mix both the shard pick and the shard's map use.
fn mix(addr: u64) -> u64 {
    let x = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix(bytes.iter().fold(self.0, |h, &b| h << 8 | u64::from(b)));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(n);
    }
}

/// One address shard: its cells, and what the accesses to them counted.
/// An access already holds its shard's lock, so counting there costs no
/// shared atomic.
#[derive(Debug, Default)]
struct Shard {
    cells: HashMap<Addr, Cell, BuildHasherDefault<AddrHasher>>,
    /// This shard's share of `reads`, `forwards`, `writes` and
    /// `silent_stores`; the other fields stay 0.
    ops: MemStats,
}

/// Atomic twins of the [`MemStats`] counters no shard keeps.
#[derive(Debug, Default)]
struct AtomicStats {
    begins: AtomicU64,
    violations: AtomicU64,
    commits: AtomicU64,
    rollbacks: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> MemStats {
        MemStats {
            begins: self.begins.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            ..MemStats::default()
        }
    }
}

/// A per-version operation summary, read from the version's handle
/// without touching any shard (used by the executor to trace an
/// attempt's memory behaviour).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VersionProbe {
    /// Tracked reads the version issued.
    pub reads: u64,
    /// Reads satisfied by eager forwarding from an earlier uncommitted
    /// version.
    pub forwards: u64,
    /// Stores issued (including elided silent ones).
    pub writes: u64,
    /// Stores elided by the silent-store rule.
    pub silent_stores: u64,
}

/// Thread-safe, address-sharded versioned speculative memory.
///
/// See the [module docs](self) for the design and the
/// [crate docs](crate) for the semantics. All methods take `&self`.
///
/// # Example
///
/// ```
/// use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
///
/// let mem = ConcurrentVersionedMemory::new();
/// mem.begin(VersionId(0));
/// mem.begin(VersionId(1));
/// mem.write(VersionId(0), Addr(4), 7);
/// // Eager forwarding, through &self.
/// assert_eq!(mem.read(VersionId(1), Addr(4)), 7);
/// mem.try_commit(VersionId(0)).unwrap();
/// mem.try_commit(VersionId(1)).unwrap();
/// assert_eq!(mem.committed(Addr(4)), Some(7));
/// ```
#[derive(Debug)]
pub struct ConcurrentVersionedMemory {
    /// Active versions, keyed by `VersionId.0`. Lock order: registry
    /// before any shard.
    registry: RwLock<BTreeMap<u64, Handle>>,
    shards: Vec<Mutex<Shard>>,
    /// `1 + VersionId.0` of the newest committed version (0 = none):
    /// guards against recycling a committed id.
    committed_watermark: AtomicU64,
    stats: AtomicStats,
}

impl Default for ConcurrentVersionedMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentVersionedMemory {
    /// Creates an empty memory (all addresses read as `0`) with
    /// [`SHARD_COUNT`] shards.
    pub fn new() -> Self {
        Self::with_shards(SHARD_COUNT)
    }

    /// Creates an empty memory with `shards` address shards. **A value
    /// of 0 is clamped to 1** — a sharded map needs at least one shard,
    /// and rejecting 0 at every call site would make the count
    /// un-sweepable; the clamp is pinned by a regression test.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            registry: RwLock::new(BTreeMap::new()),
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            committed_watermark: AtomicU64::new(0),
            stats: AtomicStats::default(),
        }
    }

    /// The number of address shards in use (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard of `addr`, picked by the high half of its mix so the
    /// shard's map still sees every low bit vary.
    fn shard(&self, addr: Addr) -> &Mutex<Shard> {
        &self.shards[(mix(addr.0) >> 32) as usize % self.shards.len()]
    }

    /// Opens a new speculative version.
    ///
    /// # Panics
    ///
    /// Panics if the version is already active, or if a version with
    /// this id has already committed (ids are commit order; re-opening
    /// a committed id would corrupt it).
    pub fn begin(&self, v: VersionId) {
        let mut reg = self.registry.write();
        assert!(
            v.0 >= self.committed_watermark.load(Ordering::Acquire),
            "version {v} has already committed"
        );
        let prev = reg.insert(v.0, Handle::default());
        assert!(prev.is_none(), "version {v} is already active");
        self.stats.begins.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether `v` is currently active (begun, not yet finished).
    pub fn is_active(&self, v: VersionId) -> bool {
        self.registry.read().contains_key(&v.0)
    }

    /// Whether `v` has been squashed by a conflicting write or a
    /// rollback's revoked forward.
    pub fn is_squashed(&self, v: VersionId) -> bool {
        self.registry
            .read()
            .get(&v.0)
            .is_some_and(|h| h.squashed_by().is_some())
    }

    /// The committed value at `addr`, if any write has ever committed.
    pub fn committed(&self, addr: Addr) -> Option<u64> {
        self.shard(addr)
            .lock()
            .cells
            .get(&addr)
            .and_then(|c| c.committed)
    }

    /// Reads `addr` from version `v`, recording the first observation in
    /// the read set for commit-time validation. The value is the newest
    /// write among versions `<= v` (eager forwarding of uncommitted
    /// stores), else the committed value, else `0`. The read set also
    /// holds silent-store bets — see
    /// [`write`](ConcurrentVersionedMemory::write).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn read(&self, v: VersionId, addr: Addr) -> u64 {
        let reg = self.registry.read();
        let handle = reg
            .get(&v.0)
            .unwrap_or_else(|| panic!("read from inactive version {v}"));
        let mut guard = self.shard(addr).lock();
        let shard = &mut *guard;
        let cell = shard.cells.entry(addr).or_default();
        let i = cell.writers.partition_point(|&(w, _)| w <= v.0);
        let value = cell.before(i);
        let own = i > 0 && cell.writers[i - 1].0 == v.0;
        if i > 0 && !own {
            shard.ops.forwards += 1;
            handle.forwards.fetch_add(1, Ordering::Relaxed);
        }
        if !own && cell.observe(v.0, value) {
            handle.touched.record(addr);
        }
        shard.ops.reads += 1;
        handle.reads.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Writes `value` to `addr` in version `v`.
    ///
    /// **The silent-store rule**: a store whose value equals what `v`
    /// already observes at `addr` is elided — it enters no write buffer
    /// and can never squash a later reader — and the elided value is
    /// recorded into the *read set* as a bet to be validated at commit
    /// (an earlier version writing a different value later still
    /// squashes `v`). A store over `v`'s own previous write is never
    /// silent.
    ///
    /// A genuine store eagerly invalidates every later active reader of
    /// `addr` whose recorded observation no longer matches what it
    /// would now read, returning the versions squashed by this call in
    /// ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn write(&self, v: VersionId, addr: Addr, value: u64) -> Vec<VersionId> {
        let reg = self.registry.read();
        let handle = reg
            .get(&v.0)
            .unwrap_or_else(|| panic!("write from inactive version {v}"));
        handle.writes.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.shard(addr).lock();
        let shard = &mut *guard;
        shard.ops.writes += 1;
        let cell = shard.cells.entry(addr).or_default();
        let i = cell.writers.partition_point(|&(w, _)| w < v.0);
        if cell.writers.get(i).is_some_and(|&(w, _)| w == v.0) {
            cell.writers[i].1 = value;
        } else if cell.before(i) == value {
            shard.ops.silent_stores += 1;
            handle.silent_stores.fetch_add(1, Ordering::Relaxed);
            if cell.observe(v.0, value) {
                handle.touched.record(addr);
            }
            return Vec::new();
        } else {
            cell.writers.insert(i, (v.0, value));
            if position(&cell.readers, v.0).is_none() {
                handle.touched.record(addr);
            }
        }
        // Eager conflict detection against this address's later readers.
        // The registry read lock we hold keeps their handles in place:
        // commit/rollback remove versions only under the write lock.
        cell.stale_readers(v.0, value)
            .filter(|w| self.doom(&reg, *w, v))
            .map(VersionId)
            .collect()
    }

    /// Marks live version `w` squashed by `by`; whether this call did it
    /// (and counted the violation) rather than an earlier one.
    fn doom(&self, reg: &BTreeMap<u64, Handle>, w: u64, by: VersionId) -> bool {
        let doomed = reg
            .get(&w)
            .expect("a cell entry's version has a handle")
            .mark_squashed(by);
        if doomed {
            self.stats.violations.fetch_add(1, Ordering::Relaxed);
        }
        doomed
    }

    /// Checks whether `v` could commit right now, without committing:
    /// the same squashed/ordering tests as
    /// [`try_commit`](ConcurrentVersionedMemory::try_commit), split out
    /// so an in-order commit frontier can resolve conflicts (squash and
    /// re-dispatch) *before* irrevocably publishing the write buffer.
    /// [`commit_check_batch`](ConcurrentVersionedMemory::commit_check_batch)
    /// at k = 1.
    ///
    /// # Errors
    ///
    /// The same as [`try_commit`](ConcurrentVersionedMemory::try_commit).
    pub fn commit_check(&self, v: VersionId) -> Result<(), CommitError> {
        self.commit_check_batch(&[v]).1.map_or(Ok(()), Err)
    }

    /// Attempts to commit `v`, publishing its buffered stores into
    /// committed state at once.
    /// [`try_commit_batch`](ConcurrentVersionedMemory::try_commit_batch)
    /// at k = 1.
    ///
    /// # Errors
    ///
    /// * [`CommitError::Unknown`] — `v` is not active;
    /// * [`CommitError::NotOldest`] — an earlier version must commit
    ///   first;
    /// * [`CommitError::Squashed`] — `v` was invalidated; roll it back
    ///   with [`rollback`](ConcurrentVersionedMemory::rollback) and
    ///   re-execute.
    pub fn try_commit(&self, v: VersionId) -> Result<(), CommitError> {
        self.try_commit_batch(&[v]).1.map_or(Ok(()), Err)
    }

    /// The commit rule, stated once: how many of `vs` (a consecutive
    /// frontier run, oldest first) could commit right now assuming each
    /// earlier element does, and the verdict on the first that could
    /// not.
    fn committable(reg: &BTreeMap<u64, Handle>, vs: &[VersionId]) -> (usize, Option<CommitError>) {
        let mut oldest = reg.keys();
        for (i, v) in vs.iter().enumerate() {
            let Some(handle) = reg.get(&v.0) else {
                return (i, Some(CommitError::Unknown));
            };
            if let Some(by) = handle.squashed_by() {
                return (i, Some(CommitError::Squashed { by }));
            }
            // `v` must be the i-th oldest active version: once the
            // first i elements commit, it becomes the oldest.
            if oldest.next() != Some(&v.0) {
                return (i, Some(CommitError::NotOldest));
            }
        }
        (vs.len(), None)
    }

    /// Checks a *consecutive frontier run* of versions in one registry
    /// read-lock acquisition: returns how many of `vs` (a strict
    /// prefix-first slice, oldest first) could commit right now, plus
    /// the error that stopped the run. The batch entry point exists so
    /// a commit frontier draining `k` buffered completions pays one
    /// lock acquisition instead of `k`.
    ///
    /// The returned error is the verdict for `vs[n]` where `n` is the
    /// returned count; `None` means the whole run is committable.
    #[must_use]
    pub fn commit_check_batch(&self, vs: &[VersionId]) -> (usize, Option<CommitError>) {
        Self::committable(&self.registry.read(), vs)
    }

    /// Commits the longest committable prefix of `vs` (a consecutive
    /// frontier run, oldest first) under a *single* registry write-lock
    /// acquisition, returning for every committed version the number of
    /// addresses whose buffered store it published (silent stores and
    /// repeated stores to one address publish nothing more), plus the
    /// error for the first version that could not commit.
    ///
    /// Observable state is identical to committing the versions one at
    /// a time; only the lock traffic is amortized.
    #[must_use]
    pub fn try_commit_batch(&self, vs: &[VersionId]) -> (Vec<u64>, Option<CommitError>) {
        let mut reg = self.registry.write();
        let (n, stopped) = Self::committable(&reg, vs);
        let published = vs[..n]
            .iter()
            .map(|v| {
                let handle = reg.remove(&v.0).expect("a committable version is active");
                // `v` is the oldest live version, so its entries lead
                // every list it is in.
                let mut published = 0;
                for addr in handle.touched.into_addrs() {
                    let mut shard = self.shard(addr).lock();
                    let cell = shard
                        .cells
                        .get_mut(&addr)
                        .expect("a touched address has a cell");
                    if cell.writers.front().is_some_and(|&(w, _)| w == v.0) {
                        cell.committed = cell.writers.pop_front().map(|(_, value)| value);
                        published += 1;
                    }
                    if cell.readers.front().is_some_and(|&(w, _)| w == v.0) {
                        cell.readers.pop_front();
                    }
                    if cell.is_empty() {
                        shard.cells.remove(&addr);
                    }
                }
                published
            })
            .collect();
        if let Some(last) = vs[..n].last() {
            self.committed_watermark
                .store(last.0 + 1, Ordering::Release);
            self.stats.commits.fetch_add(n as u64, Ordering::Relaxed);
        }
        (published, stopped)
    }

    /// Discards version `v` entirely (its writes never happened). Later
    /// versions whose recorded observations no longer match — they
    /// consumed a now-revoked forwarded value — are squashed, and
    /// returned in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn rollback(&self, v: VersionId) -> Vec<VersionId> {
        let mut reg = self.registry.write();
        let handle = reg
            .remove(&v.0)
            .unwrap_or_else(|| panic!("rollback of inactive {v}"));
        self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
        let mut squashed = Vec::new();
        for addr in handle.touched.into_addrs() {
            let mut shard = self.shard(addr).lock();
            let cell = shard
                .cells
                .get_mut(&addr)
                .expect("a touched address has a cell");
            if let Some(i) = position(&cell.writers, v.0) {
                cell.writers.remove(i);
                let exposed = cell.before(i);
                squashed.extend(
                    cell.stale_readers(v.0, exposed)
                        .filter(|w| self.doom(&reg, *w, v))
                        .map(VersionId),
                );
            }
            if let Some(i) = position(&cell.readers, v.0) {
                cell.readers.remove(i);
            }
            if cell.is_empty() {
                shard.cells.remove(&addr);
            }
        }
        squashed.sort_unstable();
        squashed
    }

    /// The number of currently active versions.
    pub fn active_count(&self) -> usize {
        self.registry.read().len()
    }

    /// A snapshot of `v`'s operation counters, or `None` if `v` is not
    /// active.
    pub fn probe(&self, v: VersionId) -> Option<VersionProbe> {
        let reg = self.registry.read();
        let h = reg.get(&v.0)?;
        Some(VersionProbe {
            reads: h.reads.load(Ordering::Relaxed),
            forwards: h.forwards.load(Ordering::Relaxed),
            writes: h.writes.load(Ordering::Relaxed),
            silent_stores: h.silent_stores.load(Ordering::Relaxed),
        })
    }

    /// A consistent-enough snapshot of the accumulated statistics
    /// (individual counters are exact; cross-counter invariants may be
    /// mid-update while other threads operate).
    pub fn stats(&self) -> MemStats {
        let mut total = self.stats.snapshot();
        for shard in &self.shards {
            let ops = shard.lock().ops;
            total.reads += ops.reads;
            total.forwards += ops.forwards;
            total.writes += ops.writes;
            total.silent_stores += ops.silent_stores;
        }
        total
    }

    /// [`begin`](Self::begin)s `v` if no version is active, and returns
    /// whether it did; the look and the open are two steps, so nothing
    /// else may begin meanwhile. Kept only while
    /// `benchmark/src/probes.rs` calls it; new code calls `begin`.
    pub fn try_begin_inline(&self, v: VersionId) -> bool {
        let idle = self.active_count() == 0;
        if idle {
            self.begin(v);
        }
        idle
    }

    /// [`try_commit_batch`](Self::try_commit_batch) of `v` alone: the
    /// number of addresses it published. Kept only while
    /// `benchmark/src/probes.rs` calls it.
    ///
    /// # Panics
    ///
    /// Panics if `v` cannot commit.
    pub fn commit_inline(&self, v: VersionId) -> u64 {
        let (published, stopped) = self.try_commit_batch(&[v]);
        assert!(stopped.is_none(), "commit of {v} refused: {stopped:?}");
        published[0]
    }

    /// Does nothing: every version publishes at its commit. Kept only
    /// while `benchmark/src/probes.rs` calls it.
    pub fn end_inline(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn preserves_single_threaded_semantics() {
        let m = ConcurrentVersionedMemory::new();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        // Privatization + forwarding.
        m.write(VersionId(1), Addr(5), 42);
        assert_eq!(m.read(VersionId(0), Addr(5)), 0);
        assert_eq!(m.read(VersionId(1), Addr(5)), 42);
        m.write(VersionId(0), Addr(7), 9);
        assert_eq!(m.read(VersionId(1), Addr(7)), 9);
        assert_eq!(m.stats().forwards, 1);
        // In-order commit.
        assert_eq!(m.try_commit(VersionId(1)), Err(CommitError::NotOldest));
        assert_eq!(m.try_commit(VersionId(0)), Ok(()));
        assert_eq!(m.try_commit(VersionId(1)), Ok(()));
        assert_eq!(m.committed(Addr(5)), Some(42));
        assert_eq!(m.committed(Addr(7)), Some(9));
    }

    #[test]
    fn stale_read_is_squashed_and_rollback_replays_clean() {
        let m = ConcurrentVersionedMemory::new();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        assert_eq!(m.read(VersionId(1), Addr(5)), 0); // reads too early
        let squashed = m.write(VersionId(0), Addr(5), 9);
        assert_eq!(squashed, vec![VersionId(1)]);
        // Squashed takes precedence over ordering.
        assert_eq!(
            m.commit_check(VersionId(1)),
            Err(CommitError::Squashed { by: VersionId(0) })
        );
        m.try_commit(VersionId(0)).unwrap();
        assert_eq!(
            m.commit_check(VersionId(1)),
            Err(CommitError::Squashed { by: VersionId(0) })
        );
        m.rollback(VersionId(1));
        // Replay: re-begin, read the committed value, commit clean.
        m.begin(VersionId(1));
        assert_eq!(m.read(VersionId(1), Addr(5)), 9);
        assert_eq!(m.try_commit(VersionId(1)), Ok(()));
    }

    #[test]
    fn silent_store_is_elided_but_bet_is_validated() {
        let m = ConcurrentVersionedMemory::new();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        // v1 silently stores the visible value 0: elided, no squash power.
        assert!(m.write(VersionId(1), Addr(3), 0).is_empty());
        assert_eq!(m.stats().silent_stores, 1);
        // v0 then genuinely writes a different value: v1's bet is off.
        let squashed = m.write(VersionId(0), Addr(3), 4);
        assert_eq!(squashed, vec![VersionId(1)]);
    }

    #[test]
    fn rollback_revokes_forwarded_values() {
        let m = ConcurrentVersionedMemory::new();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(0), Addr(5), 7);
        assert_eq!(m.read(VersionId(1), Addr(5)), 7); // consumed forward
        let squashed = m.rollback(VersionId(0));
        assert_eq!(squashed, vec![VersionId(1)]);
        assert!(m.is_squashed(VersionId(1)));
    }

    /// The commit check names who squashed a live doomed version, a
    /// younger squasher included, and keeps naming it after the squasher
    /// commits; a version committed, rolled back or never begun is
    /// unknown, and a live undoomed one is merely not the oldest.
    #[test]
    fn commit_check_names_the_squasher_of_a_live_doomed_version() {
        let m = ConcurrentVersionedMemory::new();
        let v = VersionId;
        for i in 0..4 {
            m.begin(v(i));
        }
        assert_eq!(m.read(v(2), Addr(5)), 0);
        assert_eq!(m.read(v(3), Addr(6)), 0);
        assert_eq!(
            m.commit_check_batch(&[v(2)]),
            (0, Some(CommitError::NotOldest)),
            "live, not doomed"
        );
        m.write(v(1), Addr(5), 9);
        m.write(v(0), Addr(6), 9);
        let squashed = |by| Some(CommitError::Squashed { by: v(by) });
        assert_eq!(m.commit_check_batch(&[v(0), v(1), v(2)]), (2, squashed(1)));
        assert_eq!(m.commit_check_batch(&[v(3)]), (0, squashed(0)));
        m.try_commit(v(0)).unwrap();
        m.rollback(v(2));
        assert_eq!(
            m.commit_check_batch(&[v(1), v(3)]),
            (1, squashed(0)),
            "still doomed"
        );
        for i in [0, 2, 7] {
            let unknown = (0, Some(CommitError::Unknown));
            assert_eq!(m.commit_check_batch(&[v(i)]), unknown, "v{i}");
        }
    }

    /// `v2` consumes `v1`'s forwarded 4, then overwrites the address
    /// and ends up storing the very value it read: its own buffer must
    /// not vouch for the read once `v1` takes the 4 back, whether by
    /// storing something else or by rolling back.
    #[test]
    fn own_overwrite_does_not_hide_a_revoked_read() {
        for rolls_back in [false, true] {
            let m = ConcurrentVersionedMemory::new();
            m.begin(VersionId(1));
            m.begin(VersionId(2));
            m.write(VersionId(1), Addr(0), 4);
            assert_eq!(m.read(VersionId(2), Addr(0)), 4);
            m.write(VersionId(2), Addr(0), 5);
            m.write(VersionId(2), Addr(0), 4);
            let squashed = if rolls_back {
                m.rollback(VersionId(1))
            } else {
                m.write(VersionId(1), Addr(0), 3)
            };
            assert_eq!(squashed, vec![VersionId(2)], "rolls_back: {rolls_back}");
            assert!(m.is_squashed(VersionId(2)));
        }
    }

    /// A commit publishes the version's stores at once, while later
    /// versions that read them are still live: they go on reading the
    /// same values, now from committed state rather than forwarded.
    #[test]
    fn commit_publishes_at_once_under_live_readers() {
        let m = ConcurrentVersionedMemory::new();
        for v in 0..3 {
            m.begin(VersionId(v));
        }
        m.write(VersionId(0), Addr(1), 10);
        assert_eq!(m.read(VersionId(1), Addr(1)), 10);
        assert_eq!(m.stats().forwards, 1);
        m.try_commit(VersionId(0)).unwrap();
        assert_eq!(m.committed(Addr(1)), Some(10), "published at commit");
        assert_eq!(m.read(VersionId(2), Addr(1)), 10);
        assert_eq!(m.stats().forwards, 1, "committed state, not a forward");
        // A later store still squashes a live reader of the committed
        // value, and only the one that read too early.
        assert_eq!(m.write(VersionId(1), Addr(1), 11), vec![VersionId(2)]);
        m.try_commit(VersionId(1)).unwrap();
        assert_eq!(m.committed(Addr(1)), Some(11));
        assert!(m.is_squashed(VersionId(2)));
    }

    /// Three writers on one address: rolling back the middle one hands
    /// its readers the oldest writer's value, so exactly the readers
    /// that consumed the middle value squash — including the newest
    /// writer, which read before it wrote — and nobody reading the
    /// oldest or the newest value does.
    #[test]
    fn rolling_back_a_middle_writer_reexposes_the_older_value() {
        let m = ConcurrentVersionedMemory::new();
        for v in 0..7 {
            m.begin(VersionId(v));
        }
        let a = Addr(3);
        m.write(VersionId(0), a, 1);
        m.write(VersionId(2), a, 2);
        assert_eq!(m.read(VersionId(1), a), 1);
        // A silent-store bet on the middle value is a read of it too.
        assert!(m.write(VersionId(3), a, 2).is_empty());
        assert_eq!(m.read(VersionId(4), a), 2);
        m.write(VersionId(4), a, 3);
        assert_eq!(m.read(VersionId(5), a), 3);
        assert_eq!(m.rollback(VersionId(2)), vec![VersionId(3), VersionId(4)]);
        for (v, doomed) in [(0, false), (1, false), (3, true), (4, true), (5, false)] {
            assert_eq!(m.is_squashed(VersionId(v)), doomed, "v{v}");
        }
        assert_eq!(m.read(VersionId(6), a), 3, "the newest store still wins");
        m.try_commit(VersionId(0)).unwrap();
        m.try_commit(VersionId(1)).unwrap();
        assert_eq!(m.committed(a), Some(1));
    }

    /// A commit reports the stores it published: none for a version
    /// whose every store was silent, one for two stores to one address.
    #[test]
    fn commit_reports_the_writer_entries_it_folded() {
        let m = ConcurrentVersionedMemory::new();
        let (v0, v1) = (VersionId(0), VersionId(1));
        m.begin(v0);
        m.begin(v1);
        assert!(m.write(v0, Addr(1), 0).is_empty());
        assert!(m.write(v0, Addr(2), 0).is_empty());
        m.write(v1, Addr(1), 5);
        m.write(v1, Addr(1), 6);
        assert_eq!(m.probe(v0).map(|p| p.writes), Some(2));
        assert_eq!(m.probe(v1).map(|p| p.writes), Some(2));
        assert_eq!(m.try_commit_batch(&[v0, v1]), (vec![0, 1], None));
        assert_eq!(m.committed(Addr(1)), Some(6));
        assert_eq!(
            m.committed(Addr(2)),
            None,
            "a silent store publishes nothing"
        );
    }

    /// A version that touches more addresses than its footprint has
    /// slots still commits, and rolls back, at every one of them.
    #[test]
    fn a_wide_footprint_commits_and_rolls_back_every_address() {
        let m = ConcurrentVersionedMemory::new();
        let wide = 3 * FOOTPRINT_SLOTS as u64;
        for v in 0..3 {
            m.begin(VersionId(v));
        }
        for a in 0..wide {
            m.write(VersionId(0), Addr(a), a + 1);
            m.write(VersionId(1), Addr(a), a + 2);
            assert_eq!(m.read(VersionId(2), Addr(a)), a + 2);
        }
        let squashed = m.rollback(VersionId(1));
        assert_eq!(squashed, vec![VersionId(2)]);
        assert_eq!(m.try_commit_batch(&[VersionId(0)]), (vec![wide], None));
        for a in 0..wide {
            assert_eq!(m.committed(Addr(a)), Some(a + 1), "addr {a}");
        }
    }

    #[test]
    fn zero_shard_count_is_clamped_to_one_and_still_linearizes() {
        // The documented clamp: 0 shards would be an unusable map, so
        // construction clamps to 1 rather than panic or reject.
        let m = ConcurrentVersionedMemory::with_shards(0);
        assert_eq!(m.shard_count(), 1);
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(0), Addr(9), 3);
        assert_eq!(m.read(VersionId(1), Addr(9)), 3);
        m.try_commit(VersionId(0)).unwrap();
        m.try_commit(VersionId(1)).unwrap();
        assert_eq!(m.committed(Addr(9)), Some(3));
    }

    #[test]
    fn shard_count_is_configurable_and_semantics_hold_at_extremes() {
        for shards in [1usize, 4, 64] {
            let m = ConcurrentVersionedMemory::with_shards(shards);
            assert_eq!(m.shard_count(), shards);
            m.begin(VersionId(0));
            m.begin(VersionId(1));
            assert_eq!(m.read(VersionId(1), Addr(5)), 0);
            let squashed = m.write(VersionId(0), Addr(5), 9);
            assert_eq!(squashed, vec![VersionId(1)], "{shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_begin_panics() {
        let m = ConcurrentVersionedMemory::new();
        m.begin(VersionId(0));
        m.begin(VersionId(0));
    }

    #[test]
    #[should_panic(expected = "already committed")]
    fn recycling_a_committed_id_panics() {
        let m = ConcurrentVersionedMemory::new();
        m.begin(VersionId(0));
        m.try_commit(VersionId(0)).unwrap();
        m.begin(VersionId(0));
    }

    /// The single-version entry points are the batch ones at k = 1:
    /// same verdict for an unknown, a squashed and a not-oldest version.
    #[test]
    fn single_and_batch_commit_agree_at_k_equals_one() {
        let m = ConcurrentVersionedMemory::new();
        let (v0, v1, v2, unknown) = (VersionId(0), VersionId(1), VersionId(2), VersionId(9));
        for v in [v0, v1, v2] {
            m.begin(v);
        }
        m.read(v1, Addr(5));
        assert_eq!(m.write(v0, Addr(5), 9), vec![v1]);
        let cases = [
            (unknown, CommitError::Unknown),
            (v1, CommitError::Squashed { by: v0 }),
            (v2, CommitError::NotOldest),
        ];
        for (v, verdict) in cases {
            assert_eq!(m.commit_check(v), Err(verdict));
            assert_eq!(m.commit_check_batch(&[v]), (0, Some(verdict)));
            assert_eq!(m.try_commit(v), Err(verdict));
            assert_eq!(m.try_commit_batch(&[v]), (vec![], Some(verdict)));
        }
        assert_eq!(m.active_count(), 3, "a refused commit publishes nothing");
        assert_eq!(m.commit_check(v0), Ok(()));
        assert_eq!(m.commit_check_batch(&[v0]), (1, None));
        assert_eq!(m.try_commit_batch(&[v0]), (vec![1], None));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns real threads; the single-threaded borrow/UB checks cover the substrate under miri"
    )]
    fn concurrent_chain_of_counters_commits_like_sequential_execution() {
        // N threads, each one version, all incrementing one counter.
        // A commit-frontier loop squashes/replays until every version
        // commits; the final value must be exactly N.
        const N: u64 = 8;
        let m = ConcurrentVersionedMemory::new();
        let barrier = Barrier::new(N as usize);
        let run_attempt = |v: VersionId| {
            m.begin(v);
            let cur = m.read(v, Addr(0));
            m.write(v, Addr(0), cur + 1);
        };
        std::thread::scope(|scope| {
            for i in 0..N {
                let barrier = &barrier;
                let run_attempt = &run_attempt;
                scope.spawn(move || {
                    barrier.wait();
                    run_attempt(VersionId(i));
                });
            }
        });
        for i in 0..N {
            let v = VersionId(i);
            loop {
                match m.try_commit(v) {
                    Ok(()) => break,
                    Err(CommitError::Squashed { .. }) => {
                        m.rollback(v);
                        run_attempt(v); // replay against committed state
                    }
                    Err(e) => panic!("unexpected commit error for {v}: {e}"),
                }
            }
        }
        assert_eq!(m.committed(Addr(0)), Some(N));
        assert_eq!(m.stats().commits, N);
    }
}
