//! The versioned memory model.

use crate::stats::MemStats;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// An abstract memory address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(pub u64);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A speculative version token. Ordering is commit order: lower ids are
/// logically earlier iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VersionId(pub u64);

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Why a commit failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// The version was squashed by a conflicting earlier write.
    Squashed {
        /// The version whose write invalidated this one.
        by: VersionId,
    },
    /// An earlier version is still active; commits are in order.
    NotOldest,
    /// The version is unknown (never begun or already finished).
    Unknown,
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Squashed { by } => write!(f, "version was squashed by {by}"),
            CommitError::NotOldest => write!(f, "an earlier version has not committed yet"),
            CommitError::Unknown => write!(f, "version is not active"),
        }
    }
}

impl Error for CommitError {}

#[derive(Clone, Debug, Default)]
struct Version {
    writes: BTreeMap<Addr, u64>,
    /// Address -> value observed at first read (for eager invalidation).
    reads: HashMap<Addr, u64>,
    squashed_by: Option<VersionId>,
}

/// A software model of TLS versioned memory.
///
/// See the [crate documentation](crate) for semantics. All operations are
/// `O(active versions)` in the worst case, which is bounded by the core
/// count in the simulator.
#[derive(Clone, Debug, Default)]
pub struct VersionedMemory {
    committed: HashMap<Addr, u64>,
    active: BTreeMap<VersionId, Version>,
    stats: MemStats,
}

impl VersionedMemory {
    /// Creates an empty memory (all addresses read as `0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new speculative version.
    ///
    /// # Panics
    ///
    /// Panics if the version is already active.
    pub fn begin(&mut self, v: VersionId) {
        let prev = self.active.insert(v, Version::default());
        assert!(prev.is_none(), "version {v} is already active");
        self.stats.begins += 1;
    }

    /// Whether `v` is currently active (begun, not yet finished).
    pub fn is_active(&self, v: VersionId) -> bool {
        self.active.contains_key(&v)
    }

    /// Whether `v` has been squashed by a conflicting write.
    pub fn is_squashed(&self, v: VersionId) -> bool {
        self.active
            .get(&v)
            .map(|ver| ver.squashed_by.is_some())
            .unwrap_or(false)
    }

    /// The committed value at `addr`, if any write has ever committed.
    pub fn committed(&self, addr: Addr) -> Option<u64> {
        self.committed.get(&addr).copied()
    }

    /// The value visible to `v` at `addr` and whether it was *forwarded*
    /// — satisfied from another (earlier, uncommitted) active version's
    /// write buffer rather than from `v`'s own buffer or committed
    /// state.
    fn lookup(&self, v: VersionId, addr: Addr) -> (u64, bool) {
        match self.active.get(&v).and_then(|ver| ver.writes.get(&addr)) {
            Some(&own) => (own, false),
            None => self.inherited(v, addr),
        }
    }

    /// The value visible to `v` at `addr`: the newest write among versions
    /// `<= v` (eager forwarding), else the committed value, else `0`.
    fn visible(&self, v: VersionId, addr: Addr) -> u64 {
        self.lookup(v, addr).0
    }

    /// What `v` reads at `addr` before any write of its own, and
    /// whether it was forwarded: the newest write among versions strictly
    /// *before* `v`, else the committed value, else `0`. A recorded
    /// observation is by construction such a read, so this — not
    /// [`visible`](Self::visible), which `v`'s own later store to `addr`
    /// would shadow — is what it is re-validated against.
    fn inherited(&self, v: VersionId, addr: Addr) -> (u64, bool) {
        let mut earlier = self.active.range(..v).rev();
        match earlier.find_map(|(_, ver)| ver.writes.get(&addr)) {
            Some(&value) => (value, true),
            None => (self.committed(addr).unwrap_or(0), false),
        }
    }

    /// Looks up the value visible to `v` at `addr` **without** recording
    /// it in `v`'s read set: pure lookup, split from the read-tracking
    /// side effect of [`VersionedMemory::read`]. A peeked value is not
    /// validated at commit, so a computation whose *result* depends on
    /// the value must use `read` — `peek` is for instrumentation and
    /// diagnostics only.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn peek(&self, v: VersionId, addr: Addr) -> u64 {
        assert!(
            self.active.contains_key(&v),
            "peek from inactive version {v}"
        );
        self.visible(v, addr)
    }

    /// Reads `addr` from version `v`, recording the first observation in
    /// the read set so a later conflicting store can invalidate it
    /// (lookup alone, without the tracking side effect, is
    /// [`VersionedMemory::peek`]).
    ///
    /// The read set also holds the *bets* placed by elided silent stores
    /// (see [`VersionedMemory::write`]), so "observed at `addr`" below
    /// covers both genuinely-read and silently-stored values.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn read(&mut self, v: VersionId, addr: Addr) -> u64 {
        assert!(
            self.active.contains_key(&v),
            "read from inactive version {v}"
        );
        let (value, forwarded) = self.lookup(v, addr);
        if forwarded {
            self.stats.forwards += 1;
        }
        let ver = self.active.get_mut(&v).expect("checked active");
        // Reads after the version's own write need no validation; only
        // record the first observation.
        if !ver.writes.contains_key(&addr) {
            ver.reads.entry(addr).or_insert(value);
        }
        self.stats.reads += 1;
        value
    }

    /// Writes `value` to `addr` in version `v`.
    ///
    /// **The silent-store rule** (paper §2.1, citing Lepak & Lipasti): a
    /// store whose value equals what `v` already observes at `addr` is
    /// *elided* — it enters no write buffer and can never squash a later
    /// reader. The elision is a bet that the visible value stays as
    /// observed, so the elided value is recorded into `v`'s **read set**
    /// and validated like a read: if an earlier version later writes a
    /// *different* value to `addr`, `v` is squashed even though it
    /// "only" stored. A store over `v`'s own previous write is never
    /// silent (the buffer entry must be updated).
    ///
    /// A genuine store eagerly invalidates every later active version
    /// that has observed a different value at `addr`, returning the
    /// squashed versions.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn write(&mut self, v: VersionId, addr: Addr, value: u64) -> Vec<VersionId> {
        assert!(
            self.active.contains_key(&v),
            "write from inactive version {v}"
        );
        self.stats.writes += 1;
        if self.visible(v, addr) == value && !self.active[&v].writes.contains_key(&addr) {
            self.stats.silent_stores += 1;
            // Eliding the store is a bet that the visible value stays as
            // observed; validate it like a read so a later conflicting
            // write by an earlier version still squashes this version.
            self.active
                .get_mut(&v)
                .expect("checked active")
                .reads
                .entry(addr)
                .or_insert(value);
            return Vec::new();
        }
        self.active
            .get_mut(&v)
            .expect("checked active")
            .writes
            .insert(addr, value);
        // Eager conflict detection against later readers.
        let mut squashed = Vec::new();
        let laters: Vec<VersionId> = self
            .active
            .range((std::ops::Bound::Excluded(v), std::ops::Bound::Unbounded))
            .map(|(id, _)| *id)
            .collect();
        for w in laters {
            let visible_now = self.inherited(w, addr).0;
            let ver = self.active.get_mut(&w).expect("iterating active");
            if ver.squashed_by.is_some() {
                continue;
            }
            if let Some(&observed) = ver.reads.get(&addr) {
                if observed != visible_now {
                    ver.squashed_by = Some(v);
                    squashed.push(w);
                    self.stats.violations += 1;
                }
            }
        }
        squashed
    }

    /// Attempts to commit `v`, publishing its writes.
    ///
    /// # Errors
    ///
    /// * [`CommitError::Unknown`] — `v` is not active;
    /// * [`CommitError::NotOldest`] — an earlier version must commit first;
    /// * [`CommitError::Squashed`] — `v` was invalidated; roll it back
    ///   with [`VersionedMemory::rollback`] and re-execute.
    pub fn try_commit(&mut self, v: VersionId) -> Result<(), CommitError> {
        let Some(ver) = self.active.get(&v) else {
            return Err(CommitError::Unknown);
        };
        if let Some(by) = ver.squashed_by {
            return Err(CommitError::Squashed { by });
        }
        if let Some((&oldest, _)) = self.active.iter().next() {
            if oldest != v {
                return Err(CommitError::NotOldest);
            }
        }
        let ver = self.active.remove(&v).expect("checked active");
        for (addr, value) in ver.writes {
            self.committed.insert(addr, value);
        }
        self.stats.commits += 1;
        Ok(())
    }

    /// Discards version `v` entirely (its writes never happened). Later
    /// versions that observed its forwarded writes are squashed too.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not active.
    pub fn rollback(&mut self, v: VersionId) -> Vec<VersionId> {
        let ver = self
            .active
            .remove(&v)
            .unwrap_or_else(|| panic!("rollback of inactive {v}"));
        self.stats.rollbacks += 1;
        let mut squashed = Vec::new();
        // Any later version that read an address this version wrote may
        // have consumed a forwarded (now-revoked) value: re-validate.
        let laters: Vec<VersionId> = self
            .active
            .range((std::ops::Bound::Excluded(v), std::ops::Bound::Unbounded))
            .map(|(id, _)| *id)
            .collect();
        for w in laters {
            for (addr, _) in ver.writes.iter() {
                let visible_now = self.inherited(w, *addr).0;
                let wv = self.active.get_mut(&w).expect("iterating active");
                if wv.squashed_by.is_some() {
                    break;
                }
                if let Some(&observed) = wv.reads.get(addr) {
                    if observed != visible_now {
                        wv.squashed_by = Some(v);
                        squashed.push(w);
                        self.stats.violations += 1;
                        break;
                    }
                }
            }
        }
        squashed
    }

    /// Writes directly to committed state, bypassing versioning.
    ///
    /// This is the non-transactional path used by *Commutative* functions
    /// (§2.3.2): their internal state lives outside versioned memory and
    /// is unwound by an [`crate::undo::UndoLog`] instead of by squashing.
    /// Returns the previous committed value for undo logging.
    pub fn write_committed(&mut self, addr: Addr, value: u64) -> Option<u64> {
        self.stats.nontransactional_writes += 1;
        self.committed.insert(addr, value)
    }

    /// Removes a committed entry (used by undo actions).
    pub fn erase_committed(&mut self, addr: Addr) {
        self.committed.remove(&addr);
    }

    /// The number of currently active versions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> VersionedMemory {
        VersionedMemory::new()
    }

    #[test]
    fn committed_state_starts_empty_and_reads_zero() {
        let mut m = vm();
        m.begin(VersionId(0));
        assert_eq!(m.committed(Addr(1)), None);
        assert_eq!(m.read(VersionId(0), Addr(1)), 0);
    }

    #[test]
    fn writes_are_private_to_later_versions_only() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(1), Addr(5), 42);
        // Privatization: the earlier version does not see the later write.
        assert_eq!(m.read(VersionId(0), Addr(5)), 0);
        assert_eq!(m.read(VersionId(1), Addr(5)), 42);
    }

    #[test]
    fn eager_forwarding_to_later_versions() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(0), Addr(5), 7);
        assert_eq!(m.read(VersionId(1), Addr(5)), 7);
    }

    #[test]
    fn stale_read_is_squashed_by_earlier_write() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        assert_eq!(m.read(VersionId(1), Addr(5)), 0); // reads before producer writes
        let squashed = m.write(VersionId(0), Addr(5), 9);
        assert_eq!(squashed, vec![VersionId(1)]);
        assert!(m.is_squashed(VersionId(1)));
        assert_eq!(
            m.try_commit(VersionId(1)),
            Err(CommitError::Squashed { by: VersionId(0) })
        );
    }

    #[test]
    fn silent_store_does_not_squash() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        assert_eq!(m.read(VersionId(1), Addr(5)), 0);
        // Writing the value already there is silent: no violation.
        let squashed = m.write(VersionId(0), Addr(5), 0);
        assert!(squashed.is_empty());
        assert!(!m.is_squashed(VersionId(1)));
        assert_eq!(m.stats().silent_stores, 1);
    }

    #[test]
    fn reads_after_own_write_never_invalidate() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(1), Addr(5), 3);
        assert_eq!(m.read(VersionId(1), Addr(5)), 3);
        // Earlier version writes the same address: v1 only ever saw its
        // own value, so no squash.
        let squashed = m.write(VersionId(0), Addr(5), 8);
        assert!(squashed.is_empty());
    }

    #[test]
    fn commits_must_be_in_order() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        assert_eq!(m.try_commit(VersionId(1)), Err(CommitError::NotOldest));
        assert_eq!(m.try_commit(VersionId(0)), Ok(()));
        assert_eq!(m.try_commit(VersionId(1)), Ok(()));
        assert_eq!(m.try_commit(VersionId(2)), Err(CommitError::Unknown));
    }

    #[test]
    fn commit_publishes_writes() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.write(VersionId(0), Addr(1), 11);
        m.try_commit(VersionId(0)).unwrap();
        assert_eq!(m.committed(Addr(1)), Some(11));
        m.begin(VersionId(1));
        assert_eq!(m.read(VersionId(1), Addr(1)), 11);
    }

    #[test]
    fn rollback_revokes_forwarded_values() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(0), Addr(5), 7);
        assert_eq!(m.read(VersionId(1), Addr(5)), 7); // consumed forward
        let squashed = m.rollback(VersionId(0));
        assert_eq!(squashed, vec![VersionId(1)]);
        assert!(m.is_squashed(VersionId(1)));
    }

    /// `v2` consumes `v1`'s forwarded 4, then overwrites the address
    /// and ends up storing the very value it read: its own buffer must
    /// not vouch for the read once `v1` takes the 4 back, whether by
    /// storing something else or by rolling back.
    #[test]
    fn own_overwrite_does_not_hide_a_revoked_read() {
        for rolls_back in [false, true] {
            let mut m = vm();
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
    fn rollback_leaves_unrelated_readers_alone() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(0), Addr(5), 7);
        assert_eq!(m.read(VersionId(1), Addr(6)), 0); // different address
        let squashed = m.rollback(VersionId(0));
        assert!(squashed.is_empty());
        assert_eq!(m.try_commit(VersionId(1)), Ok(()));
    }

    #[test]
    fn nontransactional_writes_bypass_versioning() {
        let mut m = vm();
        m.begin(VersionId(0));
        let old = m.write_committed(Addr(9), 5);
        assert_eq!(old, None);
        assert_eq!(m.read(VersionId(0), Addr(9)), 5);
        assert_eq!(m.write_committed(Addr(9), 6), Some(5));
        m.erase_committed(Addr(9));
        assert_eq!(m.committed(Addr(9)), None);
    }

    #[test]
    fn stats_count_operations() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.read(VersionId(1), Addr(1));
        m.write(VersionId(0), Addr(1), 2);
        let s = m.stats();
        assert_eq!(s.begins, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.violations, 1);
    }

    #[test]
    fn peek_does_not_enter_the_read_set() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        // An untracked lookup: the later conflicting write must NOT
        // squash, because nothing was recorded to validate.
        assert_eq!(m.peek(VersionId(1), Addr(5)), 0);
        let squashed = m.write(VersionId(0), Addr(5), 9);
        assert!(squashed.is_empty());
        assert!(!m.is_squashed(VersionId(1)));
        // A tracked read of the same address IS validated.
        assert_eq!(m.read(VersionId(1), Addr(5)), 9);
        assert_eq!(m.try_commit(VersionId(0)), Ok(()));
        assert_eq!(m.try_commit(VersionId(1)), Ok(()));
    }

    #[test]
    fn forwards_count_uncommitted_cross_version_reads_only() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.write(VersionId(0), Addr(1), 7);
        assert_eq!(m.read(VersionId(0), Addr(1)), 7); // own buffer: not a forward
        m.begin(VersionId(1));
        assert_eq!(m.read(VersionId(1), Addr(1)), 7); // forwarded
        m.try_commit(VersionId(0)).unwrap();
        m.begin(VersionId(2));
        assert_eq!(m.read(VersionId(2), Addr(1)), 7); // committed: not a forward
        assert_eq!(m.stats().forwards, 1);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_begin_panics() {
        let mut m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(0));
    }

    #[test]
    fn chain_of_versions_commits_like_sequential_execution() {
        // Three "iterations" each incrementing a counter in order.
        let mut m = vm();
        for i in 0..3 {
            m.begin(VersionId(i));
        }
        for i in 0..3 {
            let v = VersionId(i);
            let cur = m.read(v, Addr(0));
            m.write(v, Addr(0), cur + 1);
        }
        for i in 0..3 {
            m.try_commit(VersionId(i)).unwrap();
        }
        assert_eq!(m.committed(Addr(0)), Some(3));
        // Every read happened after the producing write (in-order issue
        // here), so no violations.
        assert_eq!(m.stats().violations, 0);
    }
}
