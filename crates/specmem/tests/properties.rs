//! Property-based tests for the versioned memory: against arbitrary
//! operation schedules, the subsystem must preserve the sequential
//! semantics of whatever commits.

use proptest::prelude::*;
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Read { v: u64, addr: u64 },
    Write { v: u64, addr: u64, val: u64 },
}

fn op_strategy(versions: u64, addrs: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..versions, 0..addrs).prop_map(|(v, addr)| Op::Read { v, addr }),
        (0..versions, 0..addrs, 0..16u64).prop_map(|(v, addr, val)| Op::Write { v, addr, val }),
    ]
}

proptest! {
    /// Issuing operations in version order (each version finishes all its
    /// operations before the next starts) is sequential execution: no
    /// version is ever squashed, and the final committed state matches a
    /// plain interpreter.
    #[test]
    fn in_order_execution_never_squashes(
        ops in proptest::collection::vec((0..8u64, 0..8u64, 0..2u8, 0..16u64), 1..200)
    ) {
        let vm = ConcurrentVersionedMemory::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Sort by version to make issue order sequential.
        let mut ops = ops;
        ops.sort_by_key(|(v, ..)| *v);
        let versions: Vec<u64> = {
            let mut vs: Vec<u64> = ops.iter().map(|(v, ..)| *v).collect();
            vs.dedup();
            vs
        };
        for v in &versions {
            vm.begin(VersionId(*v));
        }
        for (v, addr, kind, val) in &ops {
            if *kind == 0 {
                let got = vm.read(VersionId(*v), Addr(*addr));
                prop_assert_eq!(got, model.get(addr).copied().unwrap_or(0));
            } else {
                vm.write(VersionId(*v), Addr(*addr), *val);
                model.insert(*addr, *val);
            }
        }
        for v in &versions {
            prop_assert!(!vm.is_squashed(VersionId(*v)));
            prop_assert_eq!(vm.try_commit(VersionId(*v)), Ok(()));
        }
        for (addr, val) in model {
            // Silent stores of the default value are elided, so compare
            // the *observable* value (absent reads as 0).
            prop_assert_eq!(vm.committed(Addr(addr)).unwrap_or(0), val);
        }
        prop_assert_eq!(vm.stats().violations, 0);
    }

    /// Under arbitrary interleavings, versions that survive commit in
    /// order and the committed state equals replaying only the committed
    /// versions' writes sequentially.
    #[test]
    fn committed_state_matches_surviving_writes(
        ops in proptest::collection::vec(op_strategy(6, 6), 1..150)
    ) {
        let vm = ConcurrentVersionedMemory::new();
        for v in 0..6u64 {
            vm.begin(VersionId(v));
        }
        // Replay the interleaving, remembering each version's final
        // writes in issue order.
        let mut writes_of: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 6];
        for op in &ops {
            match *op {
                Op::Read { v, addr } => {
                    if !vm.is_squashed(VersionId(v)) {
                        let _ = vm.read(VersionId(v), Addr(addr));
                    }
                }
                Op::Write { v, addr, val } => {
                    if !vm.is_squashed(VersionId(v)) {
                        vm.write(VersionId(v), Addr(addr), val);
                        writes_of[v as usize].push((addr, val));
                    }
                }
            }
        }
        // Commit or roll back in version order.
        let mut model: HashMap<u64, u64> = HashMap::new();
        for v in 0..6u64 {
            if vm.is_squashed(VersionId(v)) {
                vm.rollback(VersionId(v));
            } else if vm.try_commit(VersionId(v)).is_ok() {
                for (addr, val) in &writes_of[v as usize] {
                    model.insert(*addr, *val);
                }
            }
        }
        for addr in 0..6u64 {
            prop_assert_eq!(
                vm.committed(Addr(addr)).unwrap_or(0),
                model.get(&addr).copied().unwrap_or(0),
                "address {}", addr
            );
        }
    }

    /// Silent stores never squash anyone.
    #[test]
    fn silent_stores_are_harmless(
        addrs in proptest::collection::vec(0..4u64, 1..40)
    ) {
        let vm = ConcurrentVersionedMemory::new();
        vm.begin(VersionId(0));
        vm.begin(VersionId(1));
        // The later version reads everything first.
        for a in 0..4u64 {
            let _ = vm.read(VersionId(1), Addr(a));
        }
        // The earlier version rewrites the values already there (all 0).
        for a in &addrs {
            let squashed = vm.write(VersionId(0), Addr(*a), 0);
            prop_assert!(squashed.is_empty());
        }
        prop_assert!(!vm.is_squashed(VersionId(1)));
        prop_assert_eq!(vm.stats().silent_stores, addrs.len() as u64);
    }
}
