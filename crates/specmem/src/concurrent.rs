//! Thread-safe versioned memory: the substrate the native executor
//! routes speculative state through, and the only versioned memory in
//! the workspace.
//!
//! [`ConcurrentVersionedMemory`] gives every version a privatized write
//! buffer, eagerly forwards uncommitted stores to later versions,
//! detects conflicts eagerly, applies the silent-store rule and commits
//! strictly in order. One rule decides every commit — a version commits
//! iff nothing it read was reordered past a conflicting write (Colvin's
//! parallelized sequential composition, PAPERS.md) — stated once, in the
//! private `committable`. Every operation takes `&self`:
//!
//! * **One version chain per address.** Each address has one cell: its
//!   committed value, and the live versions' stores to it and first
//!   observations of it, in version order. A write re-validates only the
//!   later readers of its one address. Cells are split across
//!   [`SHARD_COUNT`] mutex-guarded shards by a hash of the address.
//! * **A slot table of live versions,** indexed by id modulo its length
//!   (a power of two), holds each one's squashed-by mark (an atomic, so a
//!   writer in one shard dooms a version without another lock) and the
//!   addresses it holds entries at. Ids are task ids, dense and in commit
//!   order, so finding a version is an index and a compare, and `begin`
//!   one compare-and-swap. Every operation takes the table's `RwLock`
//!   shared; a `begin` whose slot another live version holds takes it
//!   exclusive to double the table, which shrinks back once no version
//!   is live. Lock order: table → shard.
//! * **Commit and rollback visit only the addresses the slot lists,**
//!   then free the slot, so no cell names a version whose slot another
//!   holds. Commit publishes the oldest version's stores at once;
//!   rollback squashes exactly the later readers whose inherited value
//!   changed.
//! * **Statistics are counted once**, inside the operation they count.
//!
//! The executor's protocol, one version per task attempt: a runner
//! [`begin`](ConcurrentVersionedMemory::begin)s a version and reads and
//! writes in it; once the attempt is over, the in-order commit frontier
//! checks it ([`commit_check_batch`](ConcurrentVersionedMemory::commit_check_batch)),
//! rolls it back on conflict and publishes it when it survives
//! ([`try_commit_batch`](ConcurrentVersionedMemory::try_commit_batch)).

use crate::memory::{Addr, CommitError, VersionId};
use crate::stats::MemStats;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default number of address shards, chosen by a sweep of {1, 4, 16, 64}
/// under 1–32 threads; override it with
/// [`ConcurrentVersionedMemory::with_shards`].
pub const SHARD_COUNT: usize = 16;

/// A fresh table's slots, past a one- or two-seat run's live window.
const MIN_SLOTS: usize = 16;

/// The widest live window the table spans: a `begin` past it panics.
const MAX_SLOTS: usize = 1 << 20;

/// Set in a slot's `held` once a commit or rollback claims its version.
const CLOSING: u64 = 1 << 63;

/// Addresses a [`Slot`] records in atomics before it spills to a list.
const FOOTPRINT_SLOTS: usize = 4;

/// A live version's bookkeeping, reachable from any shard.
#[derive(Debug, Default)]
struct Slot {
    /// `1 + VersionId.0` of the version holding the slot, or 0; and
    /// [`CLOSING`] once a commit or rollback has claimed it.
    held: AtomicU64,
    /// `1 + VersionId.0` of the squashing version, or 0.
    squashed_by: AtomicU64,
    /// How many addresses the version holds cell entries at, each recorded
    /// once: the first few in `touched` (no lock, no allocation), the rest
    /// in `spill`.
    len: AtomicUsize,
    touched: [AtomicU64; FOOTPRINT_SLOTS],
    spill: Mutex<Vec<Addr>>,
}

impl Slot {
    fn squashed_by(&self) -> Option<VersionId> {
        self.squashed_by
            .load(Ordering::Acquire)
            .checked_sub(1)
            .map(VersionId)
    }

    /// Marks the version squashed by `by` unless doomed; whether it did.
    fn mark_squashed(&self, by: VersionId) -> bool {
        self.squashed_by
            .compare_exchange(0, by.0 + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Claims live `v` for its commit or rollback; whether none had.
    fn claim(&self, v: u64) -> bool {
        let (open, closing) = (v + 1, (v + 1) | CLOSING);
        self.held
            .compare_exchange(open, closing, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn record(&self, addr: Addr) {
        match self.touched.get(self.len.fetch_add(1, Ordering::Relaxed)) {
            Some(slot) => slot.store(addr.0, Ordering::Relaxed),
            None => self.spill.lock().push(addr),
        }
    }

    /// Calls `f` on every recorded address and forgets them, keeping the
    /// spill's capacity. Records are the version's own accesses: the hand-off
    /// that ends its attempt orders them all before its commit or rollback.
    fn drain(&self, mut f: impl FnMut(Addr)) {
        let len = self.len.load(Ordering::Relaxed);
        self.len.store(0, Ordering::Relaxed);
        for slot in &self.touched[..len.min(FOOTPRINT_SLOTS)] {
            f(Addr(slot.load(Ordering::Relaxed)));
        }
        if len > FOOTPRINT_SLOTS {
            let mut spill = std::mem::take(&mut *self.spill.lock());
            spill.drain(..).for_each(f);
            *self.spill.lock() = spill;
        }
    }

    /// Frees the slot, no cell entry left; `begin`'s CAS acquires it.
    fn release(&self) {
        self.squashed_by.store(0, Ordering::Relaxed);
        self.held.store(0, Ordering::Release);
    }
}

/// A table of `len` free slots.
fn table(len: usize) -> Vec<Slot> {
    (0..len).map(|_| Slot::default()).collect()
}

/// The slot `v` indexes, whoever holds it.
fn slot_of(slots: &[Slot], v: u64) -> &Slot {
    &slots[v as usize & (slots.len() - 1)]
}

/// `v`'s slot, if `v` is live (an id `begin` refuses never is).
fn live(slots: &[Slot], v: u64) -> Option<&Slot> {
    let slot = slot_of(slots, v);
    (v < CLOSING - 1 && slot.held.load(Ordering::Acquire) & !CLOSING == v + 1).then_some(slot)
}

/// Whether a version in `lo..hi` is live: each slot an id of the range
/// indexes (every slot, for a range as wide as the table) holds one.
fn any_live(slots: &[Slot], lo: u64, hi: u64) -> bool {
    let ids = lo + 1..=hi;
    (lo..hi)
        .take(slots.len())
        .any(|u| ids.contains(&(slot_of(slots, u).held.load(Ordering::Acquire) & !CLOSING)))
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
    /// Live versions' first observations: reads, and elided silent
    /// stores' values (bets). A version that wrote first records none.
    readers: Chain,
}

impl Cell {
    /// What the writer before `writers[i]` left, else committed, else 0.
    fn before(&self, i: usize) -> u64 {
        match i.checked_sub(1) {
            Some(j) => self.writers[j].1,
            None => self.committed.unwrap_or(0),
        }
    }

    /// Records `v`'s first observation unless it has one; whether it did.
    fn observe(&mut self, v: u64, value: u64) -> bool {
        let i = self.readers.partition_point(|&(w, _)| w < v);
        if self.readers.get(i).is_some_and(|&(w, _)| w == v) {
            return false;
        }
        self.readers.insert(i, (v, value));
        true
    }

    /// The later readers whose recorded observation disagrees with what
    /// they now inherit, after the store at `v` changed to leave `value`:
    /// those after `v` up to and including the next writer. A recorded
    /// observation is an inherited read, so this — not what the reader
    /// sees now, which its own later store would shadow — is what it is
    /// held to.
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
}

/// Hashes an address with one multiply and fold instead of SipHash:
/// addresses come from the executor's programs, not an adversary, and the
/// multiply spreads small consecutive ones over the word.
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

/// One address shard: its cells, and what the accesses to them counted
/// (under the lock the access holds, so no shared atomic).
#[derive(Debug, Default)]
struct Shard {
    cells: HashMap<Addr, Cell, BuildHasherDefault<AddrHasher>>,
    /// This shard's `reads`, `forwards`, `writes` and `silent_stores`.
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

/// Thread-safe, address-sharded versioned speculative memory.
///
/// See the [module docs](self) for the design, the [crate docs](crate)
/// for the semantics.
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
    /// Live versions' slots, each at `VersionId.0` modulo the length.
    slots: RwLock<Vec<Slot>>,
    shards: Vec<Mutex<Shard>>,
    /// `1 +` the newest committed id (0: none), so none is reopened.
    committed_watermark: AtomicU64,
    stats: AtomicStats,
}

impl Default for ConcurrentVersionedMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentVersionedMemory {
    /// An empty memory (every address reads 0), [`SHARD_COUNT`] shards.
    pub fn new() -> Self {
        Self::with_shards(SHARD_COUNT)
    }

    /// Creates an empty memory with `shards` address shards. **A value
    /// of 0 is clamped to 1**, so the count stays sweepable from 0.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            slots: RwLock::new(table(MIN_SLOTS)),
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            committed_watermark: AtomicU64::new(0),
            stats: AtomicStats::default(),
        }
    }

    /// The number of address shards in use (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard of `addr`, by the high half of its mix (the map's hash
    /// keeps the low).
    fn shard(&self, addr: Addr) -> &Mutex<Shard> {
        &self.shards[(mix(addr.0) >> 32) as usize % self.shards.len()]
    }

    /// Opens a new speculative version.
    ///
    /// # Panics
    ///
    /// Panics if the version is already active, if a version with this
    /// id has already committed (ids are commit order; re-opening a
    /// committed id would corrupt it), if a live version's id is 2^20 or
    /// more away, or if `v` is 2^63 − 1 or more.
    pub fn begin(&self, v: VersionId) {
        assert!(v.0 < CLOSING - 1, "version {v} is past the last id");
        assert!(
            v.0 >= self.committed_watermark.load(Ordering::Acquire),
            "version {v} has already committed"
        );
        loop {
            let slots = self.slots.read();
            let slot = &slot_of(&slots, v.0).held;
            match slot.compare_exchange(0, v.0 + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(held) => assert!(held != v.0 + 1, "version {v} is already active"),
            }
            let seen = slots.len();
            drop(slots);
            self.grow(seen);
        }
        self.stats.begins.fetch_add(1, Ordering::Relaxed);
    }

    /// Doubles the table unless another `begin` did since it read `seen`
    /// slots. Live ids less than the length apart never share a slot, so
    /// the table spans at most twice the live window.
    fn grow(&self, seen: usize) {
        let mut slots = self.slots.write();
        if slots.len() == seen {
            assert!(2 * seen <= MAX_SLOTS, "live versions span {MAX_SLOTS} ids");
            let mut grown = table(2 * seen);
            for slot in slots.drain(..) {
                if let Some(v) = slot.held.load(Ordering::Relaxed).checked_sub(1) {
                    grown[v as usize % (2 * seen)] = slot;
                }
            }
            *slots = grown;
        }
    }

    /// Ends a commit or rollback: a grown table returns to [`MIN_SLOTS`]
    /// once no version is live.
    fn settle(&self, slots: RwLockReadGuard<'_, Vec<Slot>>) {
        if slots.len() > MIN_SLOTS && self.active_count() == 0 {
            drop(slots);
            let mut slots = self.slots.write();
            if slots.iter_mut().all(|slot| *slot.held.get_mut() == 0) {
                *slots = table(MIN_SLOTS);
            }
        }
    }

    /// Whether `v` is currently active (begun, not yet finished).
    pub fn is_active(&self, v: VersionId) -> bool {
        live(&self.slots.read(), v.0).is_some()
    }

    /// Whether `v` has been squashed by a conflict or a revoked forward.
    pub fn is_squashed(&self, v: VersionId) -> bool {
        live(&self.slots.read(), v.0).is_some_and(|slot| slot.squashed_by().is_some())
    }

    /// The committed value at `addr`, if any write has ever committed.
    pub fn committed(&self, addr: Addr) -> Option<u64> {
        self.shard(addr).lock().cells.get(&addr)?.committed
    }

    /// Reads `addr` from version `v`, recording the first observation in
    /// the read set for commit-time validation: the newest write among
    /// versions `<= v` (eager forwarding of uncommitted stores), else the
    /// committed value, else `0`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn read(&self, v: VersionId, addr: Addr) -> u64 {
        let slots = self.slots.read();
        let handle = live(&slots, v.0).unwrap_or_else(|| panic!("read from inactive version {v}"));
        let mut guard = self.shard(addr).lock();
        let shard = &mut *guard;
        let cell = shard.cells.entry(addr).or_default();
        let i = cell.writers.partition_point(|&(w, _)| w <= v.0);
        let value = cell.before(i);
        let own = i > 0 && cell.writers[i - 1].0 == v.0;
        if i > 0 && !own {
            shard.ops.forwards += 1;
        }
        if !own && cell.observe(v.0, value) {
            handle.record(addr);
        }
        shard.ops.reads += 1;
        value
    }

    /// Writes `value` to `addr` in version `v`.
    ///
    /// **The silent-store rule**: a store of the value `v` already
    /// observes at `addr` is elided — it can never squash a later reader
    /// — and recorded in the *read set* as a bet (an earlier version
    /// writing a different value still squashes `v`); a store over `v`'s
    /// own write is never silent. A genuine store squashes every later
    /// reader of `addr` it invalidates, returned in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn write(&self, v: VersionId, addr: Addr, value: u64) -> Vec<VersionId> {
        let slots = self.slots.read();
        let handle = live(&slots, v.0).unwrap_or_else(|| panic!("write from inactive version {v}"));
        let mut guard = self.shard(addr).lock();
        let shard = &mut *guard;
        shard.ops.writes += 1;
        let cell = shard.cells.entry(addr).or_default();
        let i = cell.writers.partition_point(|&(w, _)| w < v.0);
        if cell.writers.get(i).is_some_and(|&(w, _)| w == v.0) {
            cell.writers[i].1 = value;
        } else if cell.before(i) == value {
            shard.ops.silent_stores += 1;
            if cell.observe(v.0, value) {
                handle.record(addr);
            }
            return Vec::new();
        } else {
            cell.writers.insert(i, (v.0, value));
            if position(&cell.readers, v.0).is_none() {
                handle.record(addr);
            }
        }
        // Eager conflict detection: each later reader still has its entry
        // here, under our shard lock, so it still holds its slot.
        cell.stale_readers(v.0, value)
            .filter(|w| self.doom(&slots, *w, v))
            .map(VersionId)
            .collect()
    }

    /// Marks live version `w` squashed by `by`; whether this call did it
    /// (and counted the violation).
    fn doom(&self, slots: &[Slot], w: u64, by: VersionId) -> bool {
        let doomed = live(slots, w)
            .expect("a cell entry's version holds its slot")
            .mark_squashed(by);
        if doomed {
            self.stats.violations.fetch_add(1, Ordering::Relaxed);
        }
        doomed
    }

    /// Checks whether `v` could commit right now, without committing, so
    /// an in-order frontier can squash and re-dispatch *before* publishing
    /// anything: [`commit_check_batch`](Self::commit_check_batch) at k = 1.
    ///
    /// # Errors
    ///
    /// The same as [`try_commit`](ConcurrentVersionedMemory::try_commit).
    pub fn commit_check(&self, v: VersionId) -> Result<(), CommitError> {
        self.commit_check_batch(&[v]).1.map_or(Ok(()), Err)
    }

    /// Attempts to commit `v`, publishing its buffered stores at once:
    /// [`try_commit_batch`](Self::try_commit_batch) at k = 1.
    ///
    /// # Errors
    ///
    /// [`CommitError::Unknown`] if `v` is not active,
    /// [`CommitError::NotOldest`] if an earlier version must commit first,
    /// [`CommitError::Squashed`] if `v` was invalidated (roll it back and
    /// re-execute).
    pub fn try_commit(&self, v: VersionId) -> Result<(), CommitError> {
        self.commit_run(&[v], |_| {}).map_or(Ok(()), Err)
    }

    /// The commit rule: how many of `vs` (a consecutive frontier run,
    /// oldest first) could commit now, each earlier one committed first,
    /// and the verdict on the first that could not.
    fn committable(&self, slots: &[Slot], vs: &[VersionId]) -> (usize, Option<CommitError>) {
        // No live version is older than the committed watermark.
        let mut floor = self.committed_watermark.load(Ordering::Acquire);
        for (i, v) in vs.iter().enumerate() {
            let Some(slot) = live(slots, v.0) else {
                return (i, Some(CommitError::Unknown));
            };
            if let Some(by) = slot.squashed_by() {
                return (i, Some(CommitError::Squashed { by }));
            }
            // `v` must be the i-th oldest active version: once the
            // first i elements commit, it becomes the oldest.
            if v.0 < floor || any_live(slots, floor, v.0) {
                return (i, Some(CommitError::NotOldest));
            }
            floor = v.0 + 1;
        }
        (vs.len(), None)
    }

    /// Checks a *consecutive frontier run* (oldest first) at once: how
    /// many of `vs` could commit now, and the verdict on the next one.
    #[must_use]
    pub fn commit_check_batch(&self, vs: &[VersionId]) -> (usize, Option<CommitError>) {
        self.committable(&self.slots.read(), vs)
    }

    /// Commits the longest committable prefix of `vs` (a frontier run,
    /// oldest first) as one at a time would: per version, the addresses
    /// whose store it published; the error of the first that could not.
    #[must_use]
    pub fn try_commit_batch(&self, vs: &[VersionId]) -> (Vec<u64>, Option<CommitError>) {
        let mut published = Vec::new();
        let stopped = self.commit_run(vs, |n| published.push(n));
        (published, stopped)
    }

    /// [`try_commit_batch`](Self::try_commit_batch), handing `each`
    /// committed version's published count over.
    fn commit_run(&self, vs: &[VersionId], mut each: impl FnMut(u64)) -> Option<CommitError> {
        let slots = self.slots.read();
        let (mut n, mut stopped) = self.committable(&slots, vs);
        // A commit or rollback of the same version racing this one keeps it.
        if let Some(j) = vs[..n]
            .iter()
            .position(|v| !slot_of(&slots, v.0).claim(v.0))
        {
            (n, stopped) = (j, Some(CommitError::Unknown));
        }
        for v in &vs[..n] {
            let (slot, mut published) = (slot_of(&slots, v.0), 0);
            // `v` is the oldest live version: its store is the committed value.
            self.take_apart(slot, v.0, |cell, _, value| {
                cell.committed = Some(value);
                published += 1;
            });
            // Raised before the slot frees: the next commit waits for that.
            self.committed_watermark.store(v.0 + 1, Ordering::Release);
            slot.release();
            each(published);
        }
        self.stats.commits.fetch_add(n as u64, Ordering::Relaxed);
        self.settle(slots);
        stopped
    }

    /// Removes claimed version `v`'s entries from every cell it touched,
    /// handing `f` each cell it had stored to with the store's index and
    /// value; the caller frees the slot.
    fn take_apart(&self, slot: &Slot, v: u64, mut f: impl FnMut(&mut Cell, usize, u64)) {
        slot.drain(|addr| {
            let mut shard = self.shard(addr).lock();
            let cell = shard
                .cells
                .get_mut(&addr)
                .expect("a touched address has a cell");
            if let Some(i) = position(&cell.writers, v) {
                let (_, value) = cell.writers.remove(i).expect("a found entry");
                f(cell, i, value);
            }
            if let Some(i) = position(&cell.readers, v) {
                cell.readers.remove(i);
            }
            if cell.committed.is_none() && cell.writers.is_empty() && cell.readers.is_empty() {
                shard.cells.remove(&addr);
            }
        });
    }

    /// Discards version `v` entirely (its writes never happened), and
    /// squashes and returns, in ascending order, the later versions that
    /// consumed a now-revoked forwarded value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn rollback(&self, v: VersionId) -> Vec<VersionId> {
        let slots = self.slots.read();
        let slot = live(&slots, v.0)
            .filter(|slot| slot.claim(v.0))
            .unwrap_or_else(|| panic!("rollback of inactive {v}"));
        let mut squashed = Vec::new();
        self.take_apart(slot, v.0, |cell, i, _| {
            let stale = cell.stale_readers(v.0, cell.before(i));
            squashed.extend(stale.filter(|w| self.doom(&slots, *w, v)).map(VersionId));
        });
        slot.release();
        self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
        self.settle(slots);
        squashed.sort_unstable();
        squashed
    }

    /// The number of currently active versions: begun, and neither
    /// committed nor rolled back (exact while no operation is in flight).
    pub fn active_count(&self) -> usize {
        let stats = self.stats.snapshot();
        stats.begins.saturating_sub(stats.commits + stats.rollbacks) as usize
    }

    /// A snapshot of the statistics: each counter exact, their relations
    /// possibly mid-update while other threads operate.
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

    /// [`begin`](Self::begin)s `v` if no version is active (two steps:
    /// nothing else may begin meanwhile). Kept only while `benchmark/`
    /// calls it.
    pub fn try_begin_inline(&self, v: VersionId) -> bool {
        (self.active_count() == 0).then(|| self.begin(v)).is_some()
    }

    /// [`try_commit`](Self::try_commit), returning the addresses `v`
    /// published or panicking. Kept only while `benchmark/` calls it.
    pub fn commit_inline(&self, v: VersionId) -> u64 {
        let mut published = 0;
        let stopped = self.commit_run(&[v], |n| published = n);
        assert!(stopped.is_none(), "commit of {v} refused: {stopped:?}");
        published
    }

    /// Does nothing. Kept only while `benchmark/` calls it.
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
        assert_eq!(m.stats().writes, 4);
        assert_eq!(m.stats().silent_stores, 2);
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

    /// The slots in `m`'s table.
    fn table_len(m: &ConcurrentVersionedMemory) -> usize {
        m.slots.read().len()
    }

    /// Ids many times the table's length reuse its slots: one version at
    /// a time, or a few live at once, never grows it.
    #[test]
    fn ids_far_past_the_table_reuse_its_slots() {
        let m = ConcurrentVersionedMemory::new();
        let far = 10 * MIN_SLOTS as u64;
        for v in (0..far).map(VersionId) {
            m.begin(v);
            let seen = m.read(v, Addr(0));
            assert!(m.write(v, Addr(0), seen + 1).is_empty());
            assert_eq!(m.try_commit(v), Ok(()));
        }
        for v in (far..far + 3 * MIN_SLOTS as u64).step_by(4) {
            let vs: Vec<VersionId> = (v..v + 4).map(VersionId).collect();
            vs.iter().for_each(|&w| m.begin(w));
            vs.iter()
                .for_each(|&w| assert!(m.write(w, Addr(w.0), w.0).is_empty()));
            assert_eq!(m.try_commit_batch(&vs), (vec![1; 4], None));
        }
        assert_eq!(m.committed(Addr(0)), Some(far));
        assert_eq!(table_len(&m), MIN_SLOTS);
        assert_eq!(m.active_count(), 0);
    }

    /// Versions begun out of order and with gaps (5, then 2) commit in
    /// id order, the ids between them never begun.
    #[test]
    fn sparse_out_of_order_begins_commit_in_id_order() {
        let m = ConcurrentVersionedMemory::new();
        let v = VersionId;
        m.begin(v(5));
        m.begin(v(2));
        m.write(v(2), Addr(1), 7);
        assert_eq!(m.read(v(5), Addr(1)), 7, "forwarded across the gap");
        for gap in [0, 3, 4] {
            assert!(!m.is_active(v(gap)), "v{gap}");
        }
        assert_eq!(m.commit_check(v(5)), Err(CommitError::NotOldest));
        assert_eq!(m.commit_check_batch(&[v(2), v(5)]), (2, None));
        assert_eq!(
            m.try_commit_batch(&[v(5), v(2)]).1,
            Some(CommitError::NotOldest)
        );
        assert_eq!(m.try_commit_batch(&[v(2), v(5)]), (vec![1, 0], None));
        assert_eq!(m.committed(Addr(1)), Some(7));
        // The ids past the last one are never live.
        assert!(!m.is_active(v(u64::MAX)));
        assert_eq!(m.commit_check(v(u64::MAX)), Err(CommitError::Unknown));
    }

    /// A middle version rolled back and begun again takes its slot back
    /// and commits between its neighbours.
    #[test]
    fn a_middle_version_rolled_back_begins_again() {
        let m = ConcurrentVersionedMemory::new();
        let v = VersionId;
        (0..3).for_each(|i| m.begin(v(i)));
        m.write(v(1), Addr(0), 4);
        assert_eq!(m.read(v(2), Addr(0)), 4);
        assert_eq!(m.rollback(v(1)), vec![v(2)]);
        assert!(!m.is_active(v(1)));
        assert_eq!(
            m.commit_check_batch(&[v(0), v(2)]),
            (1, Some(CommitError::Squashed { by: v(1) }))
        );
        m.rollback(v(2));
        m.begin(v(1));
        m.begin(v(2));
        m.write(v(1), Addr(0), 5);
        assert_eq!(m.read(v(2), Addr(0)), 5);
        assert_eq!(
            m.try_commit_batch(&[v(0), v(1), v(2)]),
            (vec![0, 1, 0], None)
        );
        assert_eq!(m.committed(Addr(0)), Some(5));
    }

    /// A committed id panics on `begin` even once a later live version
    /// holds the slot it indexes.
    #[test]
    #[should_panic(expected = "already committed")]
    fn recycling_a_committed_id_whose_slot_is_taken_panics() {
        let m = ConcurrentVersionedMemory::new();
        let slots = MIN_SLOTS as u64;
        (0..=slots).for_each(|i| m.begin(VersionId(i)));
        m.try_commit(VersionId(0)).unwrap();
        assert!(m.is_active(VersionId(slots)));
        m.begin(VersionId(0));
    }

    /// The top bit of a slot's word marks a claimed version, so the ids
    /// that would need it are refused.
    #[test]
    #[should_panic(expected = "past the last id")]
    fn an_id_past_the_last_panics() {
        ConcurrentVersionedMemory::new().begin(VersionId(u64::MAX));
    }

    /// 4 096 live versions, each reading its predecessor's store, opened
    /// after 3 000 committed ones so that the ids the table rehashes lie
    /// past its length: the table grows to hold exactly them, forwards
    /// down the whole chain, commits it in runs of 16 and returns to its
    /// first size.
    #[test]
    fn a_4096_deep_live_chain_grows_the_table_and_commits() {
        const FROM: u64 = 3_000;
        const DEPTH: u64 = 4096;
        let m = ConcurrentVersionedMemory::new();
        for v in (0..FROM).map(VersionId) {
            m.begin(v);
            assert_eq!(m.try_commit(v), Ok(()));
        }
        for v in (FROM..FROM + DEPTH).map(VersionId) {
            m.begin(v);
            let seen = if v.0 == FROM {
                0
            } else {
                m.read(v, Addr(v.0 - 1))
            };
            m.write(v, Addr(v.0), seen + 1);
        }
        assert_eq!(table_len(&m), DEPTH as usize);
        assert_eq!(m.active_count(), DEPTH as usize);
        assert_eq!(m.stats().forwards, DEPTH - 1);
        let chain: Vec<VersionId> = (FROM..FROM + DEPTH).map(VersionId).collect();
        for run in chain.chunks(16) {
            assert_eq!(m.commit_check_batch(run), (run.len(), None));
            assert_eq!(m.try_commit_batch(run), (vec![1; run.len()], None));
        }
        assert_eq!(m.committed(Addr(FROM + DEPTH - 1)), Some(DEPTH));
        assert_eq!(table_len(&m), MIN_SLOTS);
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
