//! Property-based tests for the workload kernels: the real algorithms
//! must be correct on arbitrary inputs, not just the benchmark inputs.

use proptest::prelude::*;
use seqpar_workloads::common::WorkMeter;
use seqpar_workloads::parser::Tag;
use seqpar_workloads::{bzip2, gcc, gzip, mcf, parser, perlbmk, twolf, vortex};
use std::collections::BTreeMap;

/// Reference recognizer for the parser's CNF grammar, written as naive
/// exponential recursion — an independent oracle for the CKY kernel.
/// Nonterminals: 0=S, 1=Np, 2=Vp, 3=Pp, 4=Nom.
fn ref_derives(nt: u8, t: &[Tag]) -> bool {
    match nt {
        // S -> Np Vp
        0 => (1..t.len()).any(|k| ref_derives(1, &t[..k]) && ref_derives(2, &t[k..])),
        // Np -> Det Nom | Np Pp, plus the unary promotion Nom => Np.
        1 => {
            ref_derives(4, t)
                || (t.len() >= 2 && t[0] == Tag::Det && ref_derives(4, &t[1..]))
                || (1..t.len()).any(|k| ref_derives(1, &t[..k]) && ref_derives(3, &t[k..]))
        }
        // Vp -> Verb Np | Vp Pp
        2 => {
            (t.len() >= 2 && t[0] == Tag::Verb && ref_derives(1, &t[1..]))
                || (1..t.len()).any(|k| ref_derives(2, &t[..k]) && ref_derives(3, &t[k..]))
        }
        // Pp -> Prep Np
        3 => t.len() >= 2 && t[0] == Tag::Prep && ref_derives(1, &t[1..]),
        // Nom -> Noun | Adj Nom
        4 => t == [Tag::Noun] || (t.len() >= 2 && t[0] == Tag::Adj && ref_derives(4, &t[1..])),
        _ => unreachable!("unknown nonterminal"),
    }
}

/// Exhaustive differential oracle: the CKY parser agrees with the naive
/// reference recognizer on *every* tag sequence up to length 6
/// (5^1 + ... + 5^6 = 19 530 sequences).
#[test]
fn parser_matches_reference_recognizer_exhaustively() {
    const TAGS: [Tag; 5] = [Tag::Det, Tag::Noun, Tag::Verb, Tag::Adj, Tag::Prep];
    let mut m = WorkMeter::new();
    for len in 1..=6usize {
        let mut idx = vec![0usize; len];
        loop {
            let tags: Vec<Tag> = idx.iter().map(|&i| TAGS[i]).collect();
            assert_eq!(
                parser::parse(&tags, &mut m),
                ref_derives(0, &tags),
                "CKY and reference disagree on {tags:?}"
            );
            // Odometer increment.
            let mut carry = true;
            for d in idx.iter_mut() {
                if carry {
                    *d += 1;
                    carry = *d == TAGS.len();
                    if carry {
                        *d = 0;
                    }
                }
            }
            if carry {
                break;
            }
        }
    }
    assert!(!parser::parse(&[], &mut m), "empty input is not a sentence");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gzip_round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let mut m = WorkMeter::new();
        let tokens = gzip::deflate_block(&data, &mut m);
        prop_assert_eq!(gzip::inflate(&tokens), data);
    }

    #[test]
    fn gzip_primed_round_trips(
        dict in proptest::collection::vec(any::<u8>(), 0..512),
        data in proptest::collection::vec(any::<u8>(), 0..2000)
    ) {
        let mut m = WorkMeter::new();
        let tokens = gzip::deflate_block_primed(&dict, &data, &mut m);
        prop_assert_eq!(gzip::inflate_primed(&dict, &tokens), data);
    }

    #[test]
    fn bzip2_bwt_round_trips(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let mut m = WorkMeter::new();
        let (last, row) = bzip2::bwt(&data, &mut m);
        prop_assert_eq!(bzip2::inverse_bwt(&last, row), data);
    }

    #[test]
    fn bzip2_mtf_round_trips(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let mut m = WorkMeter::new();
        let codes = bzip2::mtf_encode(&data, &mut m);
        prop_assert_eq!(bzip2::mtf_decode(&codes), data);
    }

    #[test]
    fn bzip2_huffman_round_trips(data in proptest::collection::vec(any::<u8>(), 1..2000)) {
        let mut m = WorkMeter::new();
        let (bits, lengths, count) = bzip2::huffman_encode(&data, &mut m);
        prop_assert_eq!(bzip2::huffman_decode(&bits, &lengths, count), data);
    }

    #[test]
    fn btree_agrees_with_reference_map(
        ops in proptest::collection::vec((0..3u8, 0..200u64), 1..400)
    ) {
        let mut tree = vortex::BTree::new();
        let mut reference = BTreeMap::new();
        let mut m = WorkMeter::new();
        for (kind, key) in ops {
            match kind {
                0 => {
                    tree.insert(key, key * 3, &mut m);
                    reference.insert(key, key * 3);
                }
                1 => {
                    let got = tree.delete(key, &mut m) == vortex::Status::Normal;
                    prop_assert_eq!(got, reference.remove(&key).is_some());
                }
                _ => {
                    prop_assert_eq!(tree.lookup(key, &mut m), reference.get(&key).copied());
                }
            }
        }
        prop_assert_eq!(tree.check_invariants(), reference.len());
    }

    /// The B-tree is persistent: a clone taken at any point of a random
    /// op sequence keeps the contents of that point however the tree it
    /// came from is mutated afterwards. Each fork freezes one side and
    /// keeps mutating the other: the original (clones checked) or, with
    /// `mutate_clones`, the clone (originals checked).
    #[test]
    fn btree_clones_are_persistent(
        ops in proptest::collection::vec((0..6u8, 0..200u64), 1..400),
        mutate_clones in any::<bool>()
    ) {
        let mut tree = vortex::BTree::new();
        let mut reference = BTreeMap::new();
        let mut frozen = Vec::new();
        let mut m = WorkMeter::new();
        for (step, (kind, key)) in ops.into_iter().enumerate() {
            match kind {
                // Re-inserting a key overwrites its value in place: the
                // step makes that write visible to a shared leaf.
                0..=2 => {
                    tree.insert(key, step as u64, &mut m);
                    reference.insert(key, step as u64);
                }
                3 => {
                    tree.delete(key, &mut m);
                    reference.remove(&key);
                }
                _ => {
                    let clone = tree.clone();
                    let kept = if mutate_clones {
                        std::mem::replace(&mut tree, clone)
                    } else {
                        clone
                    };
                    frozen.push((kept, reference.clone()));
                }
            }
        }
        frozen.push((tree, reference));
        for (tree, reference) in &frozen {
            for key in 0..200 {
                prop_assert_eq!(tree.lookup(key, &mut m), reference.get(&key).copied());
            }
            prop_assert_eq!(tree.check_invariants(), reference.len());
        }
    }

    #[test]
    fn mini_compiler_passes_preserve_semantics(seed in any::<u64>(), count in 1usize..12) {
        let unit = gcc::generate_unit(count, seed);
        let mut m = WorkMeter::new();
        for f in &unit {
            let mut ops = f.ops.clone();
            let before = gcc::interpret(&ops);
            gcc::const_prop(&mut ops, &mut m);
            gcc::cse(&mut ops, &mut m);
            gcc::copy_prop(&mut ops, &mut m);
            gcc::const_prop(&mut ops, &mut m);
            gcc::dce(&mut ops, &mut m);
            prop_assert_eq!(gcc::interpret(&ops), before);
        }
    }

    #[test]
    fn generated_vm_programs_never_underflow(seed in any::<u64>(), count in 1usize..80) {
        // The interpreter panics on stack underflow; generated programs
        // must be well-formed and stack-balanced at every NextState.
        let program = perlbmk::generate_program(count, seed);
        let mut vm = perlbmk::Vm::new();
        let mut m = WorkMeter::new();
        for &op in &program {
            vm.step(op, &mut m);
            if op == perlbmk::Op::NextState {
                prop_assert_eq!(vm.stack_depth(), 0);
            }
        }
    }

    #[test]
    fn grammatical_batches_parse_deterministically(seed in any::<u64>()) {
        let a = parser::generate_batch(50, seed);
        let b = parser::generate_batch(50, seed);
        prop_assert_eq!(a, b);
    }

    /// Structurally grammatical sentences — NP Verb NP with optional
    /// adjectives and trailing prepositional phrases — always parse.
    #[test]
    fn parser_accepts_constructed_grammatical_sentences(
        adjs in proptest::collection::vec(0usize..3, 2..6),
        pps in 0usize..3
    ) {
        let np = |tags: &mut Vec<Tag>, n_adj: usize| {
            tags.push(Tag::Det);
            tags.extend(std::iter::repeat_n(Tag::Adj, n_adj));
            tags.push(Tag::Noun);
        };
        let mut tags = Vec::new();
        np(&mut tags, adjs[0]);
        tags.push(Tag::Verb);
        np(&mut tags, adjs[1]);
        for i in 0..pps.min(adjs.len().saturating_sub(2)) {
            tags.push(Tag::Prep);
            np(&mut tags, adjs[2 + i]);
        }
        let mut m = WorkMeter::new();
        prop_assert!(parser::parse(&tags, &mut m));
    }

    /// A sentence needs a verb: no verbless tag sequence ever derives S.
    #[test]
    fn parser_rejects_verbless_sequences(
        tags in proptest::collection::vec(
            prop_oneof![
                Just(Tag::Det), Just(Tag::Noun), Just(Tag::Adj), Just(Tag::Prep)
            ],
            0..12
        )
    ) {
        let mut m = WorkMeter::new();
        prop_assert!(!parser::parse(&tags, &mut m));
    }

    #[test]
    fn mcf_flow_respects_capacity_and_conservation(seed in any::<u64>()) {
        let net = mcf::generate_network(4, 5, seed);
        let r = mcf::solve(&net, |_| {});
        // Flow is bounded by the source arcs' total capacity.
        let source_cap: i64 = net.arcs.iter().filter(|a| a.from == 0).map(|a| a.cap).sum();
        prop_assert!(r.flow <= source_cap);
        prop_assert!(r.flow >= 0);
        prop_assert!(r.cost >= 0, "layered networks have non-negative costs");
    }
}

// Oracle tests for the twolf placement kernel: an independent
// half-perimeter wirelength implementation, exchange reversibility, and
// snapshot/rewind round-trips (the machinery native re-execution leans on).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `net_cost` agrees with an independently-written half-perimeter
    /// wirelength (rows weighted double) on arbitrary instances.
    #[test]
    fn twolf_net_cost_matches_reference_hpwl(seed in any::<u64>()) {
        let place = twolf::CellPlacement::generate(4, 6, 30, seed);
        let mut m = WorkMeter::new();
        let mut total = 0i64;
        for (n, net) in place.nets.iter().enumerate() {
            let rows: Vec<i64> = net.iter().map(|&c| place.pos[c as usize].0 as i64).collect();
            let cols: Vec<i64> = net.iter().map(|&c| place.pos[c as usize].1 as i64).collect();
            let reference = 2 * (rows.iter().max().unwrap() - rows.iter().min().unwrap())
                + (cols.iter().max().unwrap() - cols.iter().min().unwrap());
            prop_assert_eq!(place.net_cost(n, &mut m), reference);
            total += reference;
        }
        prop_assert_eq!(place.total_cost(&mut m), total);
    }

    /// A rejected exchange restores the placement exactly; an accepted
    /// one swaps exactly two cells' coordinates.
    #[test]
    fn twolf_exchange_is_reversible(seed in any::<u64>(), temp in 1u64..100) {
        let mut place = twolf::CellPlacement::generate(4, 6, 30, seed);
        let mut rng = twolf::YacmRandom::new(seed ^ 0xACE);
        let mut m = WorkMeter::new();
        for _ in 0..20 {
            let before = place.pos.clone();
            let out = twolf::uloop_iter(&mut place, &mut rng, temp as f64 / 10.0, &mut m);
            let moved: Vec<usize> =
                (0..before.len()).filter(|&c| place.pos[c] != before[c]).collect();
            if out.accepted {
                // 0 moves happen when the swap was a no-op cost-wise but
                // positions always change for distinct cells.
                prop_assert_eq!(moved.len(), 2, "accepted exchange moves exactly two cells");
                prop_assert_eq!(place.pos[moved[0]], before[moved[1]]);
                prop_assert_eq!(place.pos[moved[1]], before[moved[0]]);
            } else {
                prop_assert!(moved.is_empty(), "rejected exchange must restore the placement");
            }
        }
    }

    /// `set_positions` rewinds: after arbitrary annealing steps, restoring
    /// a snapshot reproduces the snapshot's cost and coordinates exactly,
    /// and the slot map stays consistent (further exchanges still work).
    #[test]
    fn twolf_snapshot_rewind_round_trips(seed in any::<u64>()) {
        let mut place = twolf::CellPlacement::generate(4, 6, 30, seed);
        let mut m = WorkMeter::new();
        let snapshot = place.pos.clone();
        let cost_at_snapshot = place.total_cost(&mut m);
        let mut rng = twolf::YacmRandom::new(seed ^ 0xF00D);
        for _ in 0..15 {
            twolf::uloop_iter(&mut place, &mut rng, 25.0, &mut m);
        }
        place.set_positions(&snapshot);
        prop_assert_eq!(&place.pos, &snapshot);
        prop_assert_eq!(place.total_cost(&mut m), cost_at_snapshot);
        // The rebuilt slot map must support further exchanges without
        // corrupting the bijection.
        twolf::uloop_iter(&mut place, &mut rng, 25.0, &mut m);
        let mut seen = vec![false; place.cell_count()];
        for &(r, c) in &place.pos {
            let i = r as usize * 6 + c as usize;
            prop_assert!(!seen[i], "two cells share a slot");
            seen[i] = true;
        }
    }

    /// The full annealer is deterministic in its seed and only ever
    /// improves or keeps the cost when the temperature floor is cold.
    #[test]
    fn twolf_uloop_is_seed_deterministic(seed in any::<u64>()) {
        let mut a = twolf::CellPlacement::generate(3, 5, 20, seed);
        let mut b = twolf::CellPlacement::generate(3, 5, 20, seed);
        let ca = twolf::uloop(&mut a, 8, seed ^ 1, |_, _| {});
        let cb = twolf::uloop(&mut b, 8, seed ^ 1, |_, _| {});
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(a.pos, b.pos);
    }
}

// Deleting keys in any order leaves the tree consistent with set
// difference (a targeted shrinker-friendly case for the B-tree).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn btree_bulk_insert_then_delete(
        keys in proptest::collection::btree_set(0..500u64, 1..120),
        delete_mask in any::<u64>()
    ) {
        let mut tree = vortex::BTree::new();
        let mut m = WorkMeter::new();
        for &k in &keys {
            tree.insert(k, k, &mut m);
        }
        let mut remaining = 0usize;
        for (i, &k) in keys.iter().enumerate() {
            if delete_mask >> (i % 64) & 1 == 1 {
                prop_assert_eq!(tree.delete(k, &mut m), vortex::Status::Normal);
            } else {
                remaining += 1;
            }
        }
        prop_assert_eq!(tree.check_invariants(), remaining);
    }
}
