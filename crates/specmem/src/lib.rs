//! Versioned speculative memory — the TLS-style hardware substrate.
//!
//! The paper's framework assumes "a versioned memory hardware subsystem
//! \[33\], allowing for privatization of data and memory alias
//! speculation" (§3.1), with two refinements called out in §2.1: **silent
//! stores** must not trigger alias misspeculation, and stored values are
//! **eagerly forwarded** to later threads to avoid misspeculation.
//!
//! [`ConcurrentVersionedMemory`] models that subsystem in software, and
//! is the only versioned memory in the workspace — the native executor's
//! substrate and the subject of every test here:
//!
//! * each speculative task opens a [`VersionId`]-ordered *version* holding
//!   a private write buffer (privatization comes for free: writes are
//!   invisible to earlier versions),
//! * reads search the newest write among versions at or before the reader
//!   (eager forwarding), falling back to committed state,
//! * a non-silent write that invalidates a later version's already-taken
//!   read squashes that version (eager conflict detection),
//! * versions commit strictly in order, publishing their buffers.
//!
//! That is the one protocol. A non-speculative stretch — the executor
//! issuing tasks one at a time on the frontier's own thread — is a run
//! of ordinary versions, each opened after its predecessor committed,
//! so none of them can conflict.
//!
//! Every operation takes `&self`; the [`concurrent`] module documents the
//! per-address version chains, the sharding and the slot table of live
//! versions that make that safe.
//!
//! # Example
//!
//! ```
//! use seqpar_specmem::{Addr, CommitError, ConcurrentVersionedMemory, VersionId};
//!
//! let mem = ConcurrentVersionedMemory::new();
//! let a = Addr(0x10);
//! let (v0, v1) = (VersionId(0), VersionId(1));
//! mem.begin(v0);
//! mem.begin(v1);
//! // The later version reads too early ...
//! assert_eq!(mem.read(v1, a), 0);
//! // ... so the earlier version's store squashes it.
//! assert_eq!(mem.write(v0, a, 7), vec![v1]);
//! mem.try_commit(v0).unwrap();
//! assert_eq!(mem.try_commit(v1), Err(CommitError::Squashed { by: v0 }));
//! // Squash and replay: the re-execution reads committed state.
//! mem.rollback(v1);
//! mem.begin(v1);
//! assert_eq!(mem.read(v1, a), 7);
//! mem.try_commit(v1).unwrap();
//! assert_eq!(mem.committed(a), Some(7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod concurrent;
pub mod memory;
pub mod stats;

pub use concurrent::ConcurrentVersionedMemory;
pub use memory::{Addr, CommitError, VersionId};
pub use stats::MemStats;
