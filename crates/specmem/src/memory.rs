//! The vocabulary of the versioned memory: addresses, version tokens
//! and why a commit can fail.

use std::error::Error;
use std::fmt;

/// An abstract memory address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A speculative version token. Ordering is commit order: lower ids are
/// logically earlier iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

#[cfg(test)]
mod tests {
    //! The single-threaded semantics of the versioned memory, pinned at
    //! one shard — every version's buffers behind one lock, one map —
    //! where `concurrent`'s own tests run at the default sixteen.

    use super::*;
    use crate::ConcurrentVersionedMemory;

    fn vm() -> ConcurrentVersionedMemory {
        ConcurrentVersionedMemory::with_shards(1)
    }

    #[test]
    fn committed_state_starts_empty_and_reads_zero() {
        let m = vm();
        m.begin(VersionId(0));
        assert_eq!(m.committed(Addr(1)), None);
        assert_eq!(m.read(VersionId(0), Addr(1)), 0);
    }

    #[test]
    fn writes_are_private_to_later_versions_only() {
        let m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(1), Addr(5), 42);
        // Privatization: the earlier version does not see the later write.
        assert_eq!(m.read(VersionId(0), Addr(5)), 0);
        assert_eq!(m.read(VersionId(1), Addr(5)), 42);
    }

    #[test]
    fn eager_forwarding_to_later_versions() {
        let m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(0), Addr(5), 7);
        assert_eq!(m.read(VersionId(1), Addr(5)), 7);
    }

    #[test]
    fn stale_read_is_squashed_by_earlier_write() {
        let m = vm();
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
        let m = vm();
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
        let m = vm();
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
        let m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        assert_eq!(m.try_commit(VersionId(1)), Err(CommitError::NotOldest));
        assert_eq!(m.try_commit(VersionId(0)), Ok(()));
        assert_eq!(m.try_commit(VersionId(1)), Ok(()));
        assert_eq!(m.try_commit(VersionId(2)), Err(CommitError::Unknown));
    }

    #[test]
    fn commit_publishes_writes() {
        let m = vm();
        m.begin(VersionId(0));
        m.write(VersionId(0), Addr(1), 11);
        m.try_commit(VersionId(0)).unwrap();
        assert_eq!(m.committed(Addr(1)), Some(11));
        m.begin(VersionId(1));
        assert_eq!(m.read(VersionId(1), Addr(1)), 11);
    }

    #[test]
    fn rollback_revokes_forwarded_values() {
        let m = vm();
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
            let m = vm();
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
        let m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(1));
        m.write(VersionId(0), Addr(5), 7);
        assert_eq!(m.read(VersionId(1), Addr(6)), 0); // different address
        let squashed = m.rollback(VersionId(0));
        assert!(squashed.is_empty());
        assert_eq!(m.try_commit(VersionId(1)), Ok(()));
    }
    #[test]
    fn stats_count_operations() {
        let m = vm();
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
    fn forwards_count_uncommitted_cross_version_reads_only() {
        let m = vm();
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
        let m = vm();
        m.begin(VersionId(0));
        m.begin(VersionId(0));
    }

    #[test]
    fn chain_of_versions_commits_like_sequential_execution() {
        // Three "iterations" each incrementing a counter in order.
        let m = vm();
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
