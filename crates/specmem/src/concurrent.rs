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
//! * **Address sharding.** Per-address state (write buffers, read sets,
//!   committed values) is split across [`SHARD_COUNT`] shards by address
//!   hash, each behind its own mutex, so accesses to different shards
//!   never contend. A single read or write touches exactly one shard.
//! * **A global version registry** (`RwLock`) holds one handle per
//!   active version: its squashed-by mark (an atomic, so a conflicting
//!   writer in one shard can doom a version without taking any other
//!   lock) and per-version operation counters. Lock order is always
//!   registry → shard, never the reverse.
//! * **Epoch-style reclamation of committed versions.** Commit does not
//!   scatter a version's writes into a flat map immediately: the write
//!   buffer is *retired* whole, tagged with the commit epoch, and stays
//!   walkable (newest-retired-first) for lookups. A retired buffer is
//!   folded into the flat base map only once every active version began
//!   after it committed — i.e. once no concurrent version's lookups can
//!   logically traverse it — mirroring epoch-based reclamation schemes.
//!   [`ConcurrentVersionedMemory::pending_reclaim`] exposes the
//!   retired-but-unfolded count.
//! * **Statistics stay exact under concurrency**: every counter in the
//!   [`MemStats`] snapshot is an atomic updated inside the operation
//!   that it counts.
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
//! at k = 1).

use crate::memory::{Addr, CommitError, VersionId};
use crate::stats::MemStats;
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of address shards. Sixteen keeps contention
/// negligible for the executor's worker counts (≤ the machine's cores)
/// without oversizing the lock table; a shard sweep ({1, 4, 16, 64}
/// under 1–32 threads, PR 6) is how this default was chosen. Override
/// it with [`ConcurrentVersionedMemory::with_config`].
pub const SHARD_COUNT: usize = 16;

/// Default epoch-reclamation cadence: retired write buffers are folded
/// into the flat base map on every `RECLAIM_CADENCE`-th commit rather
/// than on every commit. Folding is pure bookkeeping — lookups walk
/// retired buffers either way — so batching it off the commit frontier
/// shortens the frontier's critical section; BENCHMARKS.md records the
/// measured win.
pub const RECLAIM_CADENCE: u64 = 8;

/// Construction-time tuning knobs for [`ConcurrentVersionedMemory`].
///
/// The two knobs the perf baseline profiles: how finely per-address
/// state is sharded across mutexes, and how often commit folds retired
/// write buffers into the flat base map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Address shard count. **A value of 0 is clamped to 1** — a
    /// sharded map needs at least one shard, and rejecting 0 at every
    /// call site would make the knob un-sweepable; the clamp is pinned
    /// by a regression test.
    pub shards: usize,
    /// Fold retired buffers into the base map every this-many commits.
    /// **A value of 0 is clamped to 1** (reclaim on every commit, the
    /// eager pre-tuning behaviour).
    pub reclaim_cadence: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            shards: SHARD_COUNT,
            reclaim_cadence: RECLAIM_CADENCE,
        }
    }
}

/// Sentinel for "not squashed" in a handle's atomic squashed-by slot.
const NOT_SQUASHED: u64 = u64::MAX;

/// Sentinel for "no inline version active".
const INLINE_NONE: u64 = u64::MAX;

/// Per-version bookkeeping that must be reachable from any shard: the
/// squashed-by mark and the attempt's operation counters.
#[derive(Debug)]
struct Handle {
    /// Epoch at `begin` time; gates reclamation of retired buffers.
    birth_epoch: u64,
    /// `VersionId.0` of the squashing version, or [`NOT_SQUASHED`].
    squashed_by: AtomicU64,
    reads: AtomicU64,
    forwards: AtomicU64,
    writes: AtomicU64,
    silent_stores: AtomicU64,
}

impl Handle {
    fn new(birth_epoch: u64) -> Self {
        Self {
            birth_epoch,
            squashed_by: AtomicU64::new(NOT_SQUASHED),
            reads: AtomicU64::new(0),
            forwards: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            silent_stores: AtomicU64::new(0),
        }
    }

    fn squashed_by(&self) -> Option<VersionId> {
        match self.squashed_by.load(Ordering::Acquire) {
            NOT_SQUASHED => None,
            by => Some(VersionId(by)),
        }
    }

    /// Marks the version squashed by `by` unless already doomed.
    /// Returns whether this call won the race (counts the violation).
    fn mark_squashed(&self, by: VersionId) -> bool {
        self.squashed_by
            .compare_exchange(NOT_SQUASHED, by.0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// One version's footprint within one shard.
#[derive(Debug, Default)]
struct ShardVersion {
    writes: BTreeMap<Addr, u64>,
    /// Address -> value observed at first read (or silent-store bet).
    reads: HashMap<Addr, u64>,
}

/// The state of one address shard.
#[derive(Debug, Default)]
struct Shard {
    /// Active versions' buffers, keyed by `VersionId.0` (commit order).
    live: BTreeMap<u64, ShardVersion>,
    /// Committed-but-unreclaimed write buffers: `version -> (commit
    /// epoch, writes)`. Lookups walk these newest-first after the live
    /// chain; reclamation folds the old prefix into `base`.
    retired: BTreeMap<u64, (u64, BTreeMap<Addr, u64>)>,
    /// Reclaimed committed state.
    base: HashMap<Addr, u64>,
}

impl Shard {
    /// The value visible to `v` at `addr` plus whether it was forwarded
    /// from another active version's uncommitted buffer.
    fn lookup(&self, v: VersionId, addr: Addr) -> (u64, bool) {
        self.newest(Bound::Included(v.0), v, addr)
    }

    /// What `v` reads at `addr` before any write of its own: the newest
    /// write among versions strictly *before* `v`, else committed
    /// state. A recorded observation is by construction such a read, so
    /// this — not [`lookup`](Shard::lookup), which `v`'s own later store
    /// to `addr` would shadow — is what it is re-validated against.
    fn inherited(&self, v: VersionId, addr: Addr) -> u64 {
        self.newest(Bound::Excluded(v.0), v, addr).0
    }

    /// The newest write to `addr` among live versions up to `upto`,
    /// else the committed value, else `0`; the flag is whether a
    /// version other than `v` supplied it.
    fn newest(&self, upto: Bound<u64>, v: VersionId, addr: Addr) -> (u64, bool) {
        let chain = self.live.range((Bound::Unbounded, upto));
        if let Some((id, value)) = chain
            .rev()
            .find_map(|(id, sv)| sv.writes.get(&addr).map(|&value| (*id, value)))
        {
            return (value, id != v.0);
        }
        let committed = self
            .retired
            .values()
            .rev()
            .find_map(|(_, writes)| writes.get(&addr))
            .or_else(|| self.base.get(&addr));
        (committed.copied().unwrap_or(0), false)
    }
}

/// Atomic twins of every [`MemStats`] counter.
#[derive(Debug, Default)]
struct AtomicStats {
    begins: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    forwards: AtomicU64,
    silent_stores: AtomicU64,
    violations: AtomicU64,
    commits: AtomicU64,
    rollbacks: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> MemStats {
        MemStats {
            begins: self.begins.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            forwards: self.forwards.load(Ordering::Relaxed),
            silent_stores: self.silent_stores.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
        }
    }
}

/// State of the **inline fast path**: a non-speculative stretch in
/// which exactly one version at a time is open and nobody else touches
/// the memory (the executor's governor-degraded sequential issue).
/// Writes accumulate in one flat overlay instead of per-version
/// buffers; the overlay is published into committed state when the
/// stretch ends. Keeping the whole stretch in one map is what makes an
/// inline iteration cost a hash lookup instead of the full versioned
/// protocol (registry handle, shard buffers, commit sweep).
#[derive(Debug, Default)]
struct InlineBuf {
    /// Dense overlay for small addresses (`addr.0 <
    /// INLINE_DENSE_LIMIT`): loop-carried slots are tiny indices, and an
    /// indexed load beats a `HashMap` probe by an order of magnitude on
    /// the per-op fast path. `dense_set[i]` marks `dense[i]` live.
    dense: Vec<u64>,
    dense_set: Vec<bool>,
    /// Distinct dense addresses currently set (so emptiness and flush
    /// skip scanning the vectors).
    dense_dirty: usize,
    /// Overlay spill for addresses past the dense limit, newest-wins.
    spill: HashMap<Addr, u64>,
    /// Writes issued by the currently open inline version (reported by
    /// [`ConcurrentVersionedMemory::commit_inline`] for tracing).
    version_writes: u64,
    /// Reads/writes issued during the stretch, folded into the global
    /// [`MemStats`] at each inline commit — batching them under the
    /// already-held overlay lock keeps atomic traffic off the per-op
    /// path.
    reads: u64,
    writes: u64,
}

/// Addresses below this go to the dense overlay vector; the rest spill
/// to a map. 4096 slots × 8 bytes keeps the worst-case overlay at one
/// page-scale allocation.
const INLINE_DENSE_LIMIT: u64 = 4096;

impl InlineBuf {
    #[inline]
    fn get(&self, addr: Addr) -> Option<u64> {
        let i = addr.0 as usize;
        if addr.0 < INLINE_DENSE_LIMIT {
            if i < self.dense.len() && self.dense_set[i] {
                Some(self.dense[i])
            } else {
                None
            }
        } else {
            self.spill.get(&addr).copied()
        }
    }

    #[inline]
    fn set(&mut self, addr: Addr, value: u64) {
        let i = addr.0 as usize;
        if addr.0 < INLINE_DENSE_LIMIT {
            if i >= self.dense.len() {
                self.dense.resize(i + 1, 0);
                self.dense_set.resize(i + 1, false);
            }
            if !self.dense_set[i] {
                self.dense_set[i] = true;
                self.dense_dirty += 1;
            }
            self.dense[i] = value;
        } else {
            self.spill.insert(addr, value);
        }
    }

    fn is_empty(&self) -> bool {
        self.dense_dirty == 0 && self.spill.is_empty()
    }

    /// Folds the stretch's batched op counters into the global stats.
    fn fold_counters(&mut self, stats: &AtomicStats) {
        if self.reads > 0 {
            stats
                .reads
                .fetch_add(std::mem::take(&mut self.reads), Ordering::Relaxed);
        }
        if self.writes > 0 {
            stats
                .writes
                .fetch_add(std::mem::take(&mut self.writes), Ordering::Relaxed);
        }
    }

    /// Drains every overlay entry, leaving the buffers empty but with
    /// their capacity retained for the next stretch.
    fn drain(&mut self) -> Vec<(Addr, u64)> {
        let mut out = Vec::with_capacity(self.dense_dirty + self.spill.len());
        for (i, set) in self.dense_set.iter_mut().enumerate() {
            if *set {
                *set = false;
                out.push((Addr(i as u64), self.dense[i]));
            }
        }
        self.dense_dirty = 0;
        out.extend(self.spill.drain());
        out
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
    registry: RwLock<BTreeMap<u64, Arc<Handle>>>,
    shards: Vec<Mutex<Shard>>,
    /// Advances on every commit; versions stamp it at begin.
    epoch: AtomicU64,
    /// `1 + VersionId.0` of the newest committed version (0 = none):
    /// guards against recycling a committed id.
    committed_watermark: AtomicU64,
    /// Retired buffers folded into base so far.
    reclaimed: AtomicU64,
    /// Retired-but-unfolded buffers across all shards (a cheap gate so
    /// quiescing skips the shard walk when nothing is pending).
    retired_count: AtomicU64,
    /// `VersionId.0` of the active inline version, or [`INLINE_NONE`].
    /// Checked first (one relaxed load) by `read`/`write`.
    inline: AtomicU64,
    /// The inline stretch's accumulated writes. Lock order:
    /// registry → `inline_buf` → shard.
    inline_buf: Mutex<InlineBuf>,
    /// Commits since the last reclamation pass (only mutated under the
    /// registry write lock a commit holds, so plain atomics with
    /// relaxed ordering are race-free here).
    commits_since_reclaim: AtomicU64,
    /// Reclaim every this-many commits (≥ 1).
    reclaim_cadence: u64,
    stats: AtomicStats,
}

impl Default for ConcurrentVersionedMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentVersionedMemory {
    /// Creates an empty memory (all addresses read as `0`) with the
    /// default [`MemConfig`].
    pub fn new() -> Self {
        Self::with_config(MemConfig::default())
    }

    /// Creates an empty memory with `shards` address shards and the
    /// default reclamation cadence. Shorthand for
    /// [`with_config`](Self::with_config); the same 0-clamps-to-1 rule
    /// applies.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_config(MemConfig {
            shards,
            ..MemConfig::default()
        })
    }

    /// Creates an empty memory tuned by `config`. Zero shard counts and
    /// zero cadences are clamped to 1 (see [`MemConfig`]).
    pub fn with_config(config: MemConfig) -> Self {
        Self {
            registry: RwLock::new(BTreeMap::new()),
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            epoch: AtomicU64::new(0),
            committed_watermark: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            retired_count: AtomicU64::new(0),
            inline: AtomicU64::new(INLINE_NONE),
            inline_buf: Mutex::new(InlineBuf::default()),
            commits_since_reclaim: AtomicU64::new(0),
            reclaim_cadence: config.reclaim_cadence.max(1),
            stats: AtomicStats::default(),
        }
    }

    /// The number of address shards in use (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, addr: Addr) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        addr.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
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
        // Self-healing for the inline fast path: the first versioned
        // begin after an inline stretch closes it (an inline commit
        // pre-opens the successor id, which this begin may be claiming)
        // and publishes the stretch's overlay, so a speculative reader
        // can never observe pre-stretch state or route its ops through
        // the overlay. (The executor also closes eagerly via
        // `end_inline`; this keeps correctness independent of that
        // courtesy.)
        self.inline.store(INLINE_NONE, Ordering::Release);
        self.flush_inline();
        let handle = Arc::new(Handle::new(self.epoch.load(Ordering::Acquire)));
        let prev = reg.insert(v.0, handle);
        assert!(prev.is_none(), "version {v} is already active");
        self.stats.begins.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens `v` on the **inline fast path**: no registry handle, no
    /// per-version shard buffers — reads and writes go through one flat
    /// overlay. Only legal when the memory is quiescent (no active
    /// version); returns `false` without opening anything otherwise, and
    /// the caller must fall back to [`begin`](Self::begin).
    ///
    /// The caller contract is the governor-degraded executor's:
    /// between `try_begin_inline` and the matching
    /// [`commit_inline`](Self::commit_inline), no other version may be
    /// begun and no other thread may touch the memory. Successive
    /// inline versions may share one stretch; the accumulated overlay
    /// is published by [`end_inline`](Self::end_inline) (or by the next
    /// versioned [`begin`](Self::begin), which self-heals).
    ///
    /// # Panics
    ///
    /// Panics if a version with this id has already committed, or if an
    /// inline version is already open.
    pub fn try_begin_inline(&self, v: VersionId) -> bool {
        // Stretch continuation: the previous inline commit pre-opened
        // exactly this id (and reset the per-version write counter), so
        // consecutive inline versions cost one atomic load — no
        // registry lock, no overlay touch. A versioned `begin` in
        // between would have closed the stretch (`inline` back to the
        // sentinel) and this falls through to the full open.
        if self.inline.load(Ordering::Acquire) == v.0 {
            self.stats.begins.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let reg = self.registry.read();
        if !reg.is_empty() {
            return false;
        }
        assert!(
            v.0 >= self.committed_watermark.load(Ordering::Acquire),
            "version {v} has already committed"
        );
        assert_eq!(
            self.inline.load(Ordering::Acquire),
            INLINE_NONE,
            "inline version already open"
        );
        // Quiesce: fold retired buffers into the flat base map so it is
        // authoritative for inline reads and the eventual flush (a
        // retired buffer would otherwise shadow flushed values).
        if self.retired_count.load(Ordering::Acquire) > 0 {
            self.reclaim(&reg);
        }
        self.inline_buf.lock().version_writes = 0;
        self.inline.store(v.0, Ordering::Release);
        self.stats.begins.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Commits the open inline version (it cannot have been squashed —
    /// nothing else was live). Returns the number of writes it issued,
    /// for tracing. The stretch's overlay stays unpublished so the next
    /// inline version keeps reading it; see
    /// [`end_inline`](Self::end_inline).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not the open inline version.
    pub fn commit_inline(&self, v: VersionId) -> u64 {
        assert_eq!(
            self.inline.load(Ordering::Acquire),
            v.0,
            "commit_inline of a version that is not the open inline version"
        );
        let writes = {
            let mut buf = self.inline_buf.lock();
            buf.fold_counters(&self.stats);
            std::mem::take(&mut buf.version_writes)
        };
        // Pre-open the successor id: in a degraded stretch the executor
        // commits consecutive frontier tasks, so the next
        // `try_begin_inline` hits the continuation fast path. Anything
        // else (a versioned `begin`, `end_inline`) closes the stretch
        // first.
        self.inline.store(v.0 + 1, Ordering::Release);
        self.committed_watermark.store(v.0 + 1, Ordering::Release);
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        writes
    }

    /// Ends an inline stretch: publishes the overlay's accumulated
    /// writes into committed state. Idempotent and cheap when no
    /// stretch is open. The executor calls this when the governor
    /// re-probes speculation and once at run end (so
    /// [`committed`](Self::committed) reflects inline work); a
    /// versioned [`begin`](Self::begin) also flushes defensively.
    pub fn end_inline(&self) {
        self.inline.store(INLINE_NONE, Ordering::Release);
        self.flush_inline();
    }

    /// Publishes the inline overlay into the base map. Retired buffers
    /// are empty whenever the overlay is non-empty (the stretch began
    /// quiescent and nothing committed through shards since), so base
    /// inserts cannot be shadowed.
    fn flush_inline(&self) {
        let mut buf = self.inline_buf.lock();
        buf.fold_counters(&self.stats);
        if buf.is_empty() {
            return;
        }
        for (addr, value) in buf.drain() {
            self.shard(addr).lock().base.insert(addr, value);
        }
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
        let shard = self.shard(addr).lock();
        shard
            .retired
            .values()
            .rev()
            .find_map(|(_, writes)| writes.get(&addr))
            .or_else(|| shard.base.get(&addr))
            .copied()
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
        if self.inline.load(Ordering::Acquire) == v.0 {
            let value = {
                let mut buf = self.inline_buf.lock();
                buf.reads += 1;
                buf.get(addr)
            };
            return value.unwrap_or_else(|| self.committed(addr).unwrap_or(0));
        }
        let reg = self.registry.read();
        let handle = reg
            .get(&v.0)
            .unwrap_or_else(|| panic!("read from inactive version {v}"));
        let mut shard = self.shard(addr).lock();
        let (value, forwarded) = shard.lookup(v, addr);
        if forwarded {
            self.stats.forwards.fetch_add(1, Ordering::Relaxed);
            handle.forwards.fetch_add(1, Ordering::Relaxed);
        }
        let sv = shard.live.entry(v.0).or_default();
        if !sv.writes.contains_key(&addr) {
            sv.reads.entry(addr).or_insert(value);
        }
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
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
    /// A genuine store eagerly invalidates every later active version
    /// whose recorded observation of `addr` no longer matches what it
    /// would now read, returning the versions squashed by this call.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn write(&self, v: VersionId, addr: Addr, value: u64) -> Vec<VersionId> {
        if self.inline.load(Ordering::Acquire) == v.0 {
            let mut buf = self.inline_buf.lock();
            buf.writes += 1;
            buf.set(addr, value);
            buf.version_writes += 1;
            return Vec::new();
        }
        let reg = self.registry.read();
        let handle = reg
            .get(&v.0)
            .unwrap_or_else(|| panic!("write from inactive version {v}"));
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        handle.writes.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(addr).lock();
        let (visible, _) = shard.lookup(v, addr);
        let own = shard
            .live
            .get(&v.0)
            .is_some_and(|sv| sv.writes.contains_key(&addr));
        if visible == value && !own {
            self.stats.silent_stores.fetch_add(1, Ordering::Relaxed);
            handle.silent_stores.fetch_add(1, Ordering::Relaxed);
            shard
                .live
                .entry(v.0)
                .or_default()
                .reads
                .entry(addr)
                .or_insert(value);
            return Vec::new();
        }
        shard
            .live
            .entry(v.0)
            .or_default()
            .writes
            .insert(addr, value);
        // Eager conflict detection against later readers of this shard.
        let laters: Vec<u64> = shard
            .live
            .range((Bound::Excluded(v.0), Bound::Unbounded))
            .map(|(id, _)| *id)
            .collect();
        let mut squashed = Vec::new();
        for w in laters {
            let observed = shard.live[&w].reads.get(&addr).copied();
            let Some(observed) = observed else { continue };
            let visible_now = shard.inherited(VersionId(w), addr);
            if observed != visible_now {
                // The registry read lock we hold keeps `w`'s handle
                // alive: commit/rollback remove versions only under the
                // registry write lock.
                let doomed = reg.get(&w).expect("live version has a handle");
                if doomed.mark_squashed(v) {
                    self.stats.violations.fetch_add(1, Ordering::Relaxed);
                    squashed.push(VersionId(w));
                }
            }
        }
        squashed
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

    /// Attempts to commit `v`, retiring its write buffer into committed
    /// state (published immediately; *reclaimed* into the flat base map
    /// once every active version postdates this commit).
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
        self.commit_prefix(&[v], |_| {}).map_or(Ok(()), Err)
    }

    /// The commit rule, stated once: how many of `vs` (a consecutive
    /// frontier run, oldest first) could commit right now assuming each
    /// earlier element does, and the verdict on the first that could
    /// not. `passed` sees the handle of every version that can.
    fn committable(
        reg: &BTreeMap<u64, Arc<Handle>>,
        vs: &[VersionId],
        mut passed: impl FnMut(&Handle),
    ) -> (usize, Option<CommitError>) {
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
            passed(handle);
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
        Self::committable(&self.registry.read(), vs, |_| {})
    }

    /// Commits the longest committable prefix of `vs` (a consecutive
    /// frontier run, oldest first) under a *single* registry write-lock
    /// acquisition and one pass over each shard, returning the number
    /// of published write-buffer entries for every committed version
    /// plus the error for the first version that could not commit.
    ///
    /// Each version receives its own retirement epoch tag, the commit
    /// watermark advances past the last committed version, and
    /// reclamation cadence accounting counts every commit — observable
    /// state is identical to committing the versions one at a time;
    /// only the lock traffic is amortized.
    #[must_use]
    pub fn try_commit_batch(&self, vs: &[VersionId]) -> (Vec<u64>, Option<CommitError>) {
        let mut writes = Vec::new();
        let stopped = self.commit_prefix(vs, |w| writes.push(w));
        (writes, stopped)
    }

    /// The one commit routine: publishes the committable prefix of `vs`,
    /// reporting each committed version's write count to `published`
    /// (the counter `probe` reports, captured before the handle leaves
    /// the registry), and returns what stopped the run.
    fn commit_prefix(
        &self,
        vs: &[VersionId],
        mut published: impl FnMut(u64),
    ) -> Option<CommitError> {
        let mut reg = self.registry.write();
        let (n, stopped) = Self::committable(&reg, vs, |handle| {
            published(handle.writes.load(Ordering::Relaxed));
        });
        let run = &vs[..n];
        let Some(last) = run.last() else {
            return stopped;
        };
        for v in run {
            reg.remove(&v.0);
        }
        // One epoch block for the run; tags stay strictly increasing in
        // commit order.
        let base = self.epoch.fetch_add(run.len() as u64, Ordering::AcqRel);
        for shard in &self.shards {
            let mut shard = shard.lock();
            for (i, v) in run.iter().enumerate() {
                if let Some(sv) = shard.live.remove(&v.0) {
                    if !sv.writes.is_empty() {
                        shard.retired.insert(v.0, (base + i as u64, sv.writes));
                        self.retired_count.fetch_add(1, Ordering::Release);
                    }
                }
            }
        }
        self.committed_watermark
            .store(last.0 + 1, Ordering::Release);
        self.stats
            .commits
            .fetch_add(run.len() as u64, Ordering::Relaxed);
        // Reclamation is batched: folding retired buffers is pure
        // bookkeeping (lookups walk them either way), so it runs only
        // every `reclaim_cadence`-th commit to keep the in-order commit
        // frontier's critical section short.
        let since = self
            .commits_since_reclaim
            .fetch_add(run.len() as u64, Ordering::Relaxed)
            + run.len() as u64;
        if since >= self.reclaim_cadence {
            self.commits_since_reclaim.store(0, Ordering::Relaxed);
            self.reclaim(&reg);
        }
        stopped
    }

    /// Folds retired buffers that predate every active version into the
    /// base map, oldest-first (the fold must be a prefix so newer
    /// retired writes keep shadowing older ones during lookups).
    fn reclaim(&self, reg: &BTreeMap<u64, Arc<Handle>>) {
        let min_birth = reg
            .values()
            .map(|h| h.birth_epoch)
            .min()
            .unwrap_or(u64::MAX);
        for shard in &self.shards {
            let mut shard = shard.lock();
            while let Some((&version, &(tag, _))) = shard.retired.iter().next() {
                if tag >= min_birth {
                    break;
                }
                let (_, writes) = shard.retired.remove(&version).expect("peeked entry");
                for (addr, value) in writes {
                    shard.base.insert(addr, value);
                }
                self.reclaimed.fetch_add(1, Ordering::Relaxed);
                self.retired_count.fetch_sub(1, Ordering::Release);
            }
        }
    }

    /// Discards version `v` entirely (its writes never happened). Later
    /// versions whose recorded observations no longer match — they
    /// consumed a now-revoked forwarded value — are squashed, and
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn rollback(&self, v: VersionId) -> Vec<VersionId> {
        let mut reg = self.registry.write();
        reg.remove(&v.0)
            .unwrap_or_else(|| panic!("rollback of inactive {v}"));
        self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
        let reg = &*reg;
        let mut squashed = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let Some(removed) = shard.live.remove(&v.0) else {
                continue;
            };
            let laters: Vec<u64> = shard
                .live
                .range((Bound::Excluded(v.0), Bound::Unbounded))
                .map(|(id, _)| *id)
                .collect();
            for w in laters {
                for addr in removed.writes.keys() {
                    let Some(&observed) = shard.live[&w].reads.get(addr) else {
                        continue;
                    };
                    let visible_now = shard.inherited(VersionId(w), *addr);
                    if observed != visible_now {
                        let doomed = reg.get(&w).expect("live version has a handle");
                        if doomed.mark_squashed(v) {
                            self.stats.violations.fetch_add(1, Ordering::Relaxed);
                            squashed.push(VersionId(w));
                        }
                        break;
                    }
                }
            }
        }
        squashed
    }

    /// The number of currently active versions.
    pub fn active_count(&self) -> usize {
        self.registry.read().len()
    }

    /// Committed write buffers retired but not yet folded into the base
    /// map (awaiting epoch reclamation), summed over shards.
    pub fn pending_reclaim(&self) -> usize {
        self.shards.iter().map(|s| s.lock().retired.len()).sum()
    }

    /// Retired buffers reclaimed (folded into the base map) so far.
    pub fn reclaimed_versions(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
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

    /// If `v` is live and doomed, reports who squashed it. Returns
    /// `None` when `v` is unknown (already committed or rolled back)
    /// or not squashed.
    pub fn squash_info(&self, v: VersionId) -> Option<VersionId> {
        self.registry.read().get(&v.0)?.squashed_by()
    }

    /// A consistent-enough snapshot of the accumulated statistics
    /// (individual counters are exact; cross-counter invariants may be
    /// mid-update while other threads operate).
    pub fn stats(&self) -> MemStats {
        self.stats.snapshot()
    }
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

    #[test]
    fn squash_info_names_the_squasher_of_a_live_doomed_version_only() {
        let m = ConcurrentVersionedMemory::new();
        for v in 0..4 {
            m.begin(VersionId(v));
        }
        assert_eq!(m.read(VersionId(2), Addr(5)), 0);
        assert_eq!(m.read(VersionId(3), Addr(6)), 0);
        assert_eq!(m.squash_info(VersionId(2)), None, "live, not doomed");
        m.write(VersionId(1), Addr(5), 9);
        m.write(VersionId(0), Addr(6), 9);
        assert_eq!(m.squash_info(VersionId(2)), Some(VersionId(1)));
        assert_eq!(m.squash_info(VersionId(3)), Some(VersionId(0)));
        // Committed, rolled back and never begun: nobody to ask about.
        m.try_commit(VersionId(0)).unwrap();
        m.rollback(VersionId(2));
        assert_eq!(
            m.squash_info(VersionId(3)),
            Some(VersionId(0)),
            "still doomed"
        );
        for v in [0, 2, 7] {
            assert_eq!(m.squash_info(VersionId(v)), None, "v{v}");
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

    #[test]
    fn epoch_reclamation_folds_only_prefixes_no_active_version_needs() {
        // Cadence 1 = the eager pre-tuning behaviour this test pins.
        let m = ConcurrentVersionedMemory::with_config(MemConfig {
            reclaim_cadence: 1,
            ..MemConfig::default()
        });
        m.begin(VersionId(0));
        m.write(VersionId(0), Addr(1), 10);
        // v1 begins BEFORE v0 commits: its birth epoch pins v0's buffer.
        m.begin(VersionId(1));
        m.write(VersionId(1), Addr(2), 20);
        m.try_commit(VersionId(0)).unwrap();
        assert_eq!(m.pending_reclaim(), 1, "v1 still pins v0's buffer");
        assert_eq!(m.read(VersionId(1), Addr(1)), 10);
        m.try_commit(VersionId(1)).unwrap();
        // No active versions: the next commit's reclaim folds everything.
        m.begin(VersionId(2));
        m.try_commit(VersionId(2)).unwrap();
        assert_eq!(m.pending_reclaim(), 0);
        assert_eq!(m.reclaimed_versions(), 2);
        // Folding preserved newest-wins visibility.
        assert_eq!(m.committed(Addr(1)), Some(10));
        assert_eq!(m.committed(Addr(2)), Some(20));
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
    fn reclaim_cadence_batches_folding_without_changing_visibility() {
        let m = ConcurrentVersionedMemory::with_config(MemConfig {
            shards: 4,
            reclaim_cadence: 4,
        });
        // Four committed writers, no concurrent pinners: with cadence 1
        // all would fold immediately; with cadence 4 the first three
        // commits leave buffers retired-but-walkable.
        for i in 0..3u64 {
            m.begin(VersionId(i));
            m.write(VersionId(i), Addr(i), i + 10);
            m.try_commit(VersionId(i)).unwrap();
            assert_eq!(m.committed(Addr(i)), Some(i + 10), "visible pre-fold");
        }
        assert_eq!(m.pending_reclaim(), 3, "cadence defers folding");
        m.begin(VersionId(3));
        m.write(VersionId(3), Addr(3), 13);
        m.try_commit(VersionId(3)).unwrap();
        assert_eq!(m.pending_reclaim(), 0, "4th commit folds everything");
        for i in 0..4u64 {
            assert_eq!(m.committed(Addr(i)), Some(i + 10), "visible post-fold");
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
