//! Property-based tests for the workload kernels: the real algorithms
//! must be correct on arbitrary inputs, not just the benchmark inputs.

use proptest::prelude::*;
use seqpar_workloads::common::WorkMeter;
use seqpar_workloads::parser::Tag;
use seqpar_workloads::{bzip2, crafty, gcc, gzip, mcf, parser, perlbmk, twolf, vortex, Prng};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

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

// Identity properties. bzip2's `bwt`, gzip's matcher and crafty's
// `search` are written for speed; each must return what the plain
// routine below returns — output, metered work and all — because the
// metered work is what the simulator prices. The plain routines are the
// kernels as first written, kept here and nowhere else. Every test name
// starts with `identity_`, so CI runs them alone, in release, with
// `PROPTEST_CASES=1000`.

/// Cases for the identity properties: `PROPTEST_CASES` when set, else 64.
fn identity_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(64)
}

/// The BWT with both sort keys rebuilt from `rank` on every comparison.
fn plain_bwt(data: &[u8], meter: &mut WorkMeter) -> (Vec<u8>, usize) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut rank: Vec<u32> = data.iter().map(|&b| b as u32).collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut tmp = vec![0u32; n];
    let mut k = 1usize;
    let comparisons = Cell::new(0u64);
    while k < n {
        let key = |i: u32| {
            let i = i as usize;
            (rank[i], rank[(i + k) % n])
        };
        order.sort_unstable_by(|&a, &b| {
            comparisons.set(comparisons.get() + 1);
            key(a).cmp(&key(b))
        });
        tmp[order[0] as usize] = 0;
        for w in 1..n {
            let prev = order[w - 1];
            let cur = order[w];
            tmp[cur as usize] = tmp[prev as usize] + u32::from(key(prev) != key(cur));
        }
        rank.copy_from_slice(&tmp);
        if rank[order[n - 1] as usize] as usize == n - 1 {
            break;
        }
        k *= 2;
    }
    meter.add(comparisons.get());
    let mut last = Vec::with_capacity(n);
    let mut orig_row = 0;
    for (row, &start) in order.iter().enumerate() {
        let s = start as usize;
        last.push(data[(s + n - 1) % n]);
        if s == 0 {
            orig_row = row;
        }
    }
    (last, orig_row)
}

/// gzip's constants, as `gzip.rs` sets them.
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 1 << 11;
const MAX_CHAIN: usize = 32;

/// `deflate_block_primed` with a matcher that compares one byte at a time.
fn plain_deflate(dict: &[u8], data: &[u8], meter: &mut WorkMeter) -> Vec<gzip::Token> {
    let buf: Vec<u8> = dict.iter().chain(data.iter()).copied().collect();
    let data = &buf[..];
    let start = dict.len();
    let mut tokens = Vec::new();
    let mut head: Vec<i64> = vec![-1; 1 << 15];
    let mut prev: Vec<i64> = vec![-1; data.len()];
    let hash = |d: &[u8], i: usize| -> usize {
        let h = (d[i] as usize) << 10 ^ (d[i + 1] as usize) << 5 ^ d[i + 2] as usize;
        h & ((1 << 15) - 1)
    };
    let seed_end = start.saturating_sub(MIN_MATCH - 1);
    for (i, slot) in prev.iter_mut().enumerate().take(seed_end) {
        let h = hash(data, i);
        *slot = head[h];
        head[h] = i as i64;
    }
    let mut i = start;
    while i < data.len() {
        meter.add(1);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand >= 0 && chain < MAX_CHAIN {
                let c = cand as usize;
                if i - c > WINDOW {
                    break;
                }
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && data[c + l] == data[i + l] {
                    l += 1;
                }
                meter.add(1 + l as u64 / 4);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                }
                cand = prev[c];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i as i64;
        }
        if best_len >= MIN_MATCH {
            tokens.push(gzip::Token::Match {
                dist: best_dist as u32,
                len: best_len as u32,
            });
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            while j < end {
                let h = hash(data, j);
                prev[j] = head[h];
                head[h] = j as i64;
                meter.add(1);
                j += 1;
            }
            i += best_len;
        } else {
            tokens.push(gzip::Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Holds `deflate_block_primed` to [`plain_deflate`] on one input and
/// returns the tokens.
fn assert_deflate_is_plain(dict: &[u8], data: &[u8]) -> Vec<gzip::Token> {
    let (mut fast, mut plain) = (WorkMeter::new(), WorkMeter::new());
    let tokens = gzip::deflate_block_primed(dict, data, &mut fast);
    assert_eq!(
        tokens,
        plain_deflate(dict, data, &mut plain),
        "{} + {} bytes",
        dict.len(),
        data.len()
    );
    assert_eq!(fast.total(), plain.total(), "work");
    tokens
}

/// Small-alphabet bytes with planted repeats. A piece `(copy, len, seed)`
/// appends `len` symbols drawn from `seed`, or, with `copy`, `len` bytes
/// copied from a `seed`-chosen distance back (overlapping, so short
/// distances make runs) and then one symbol that breaks the copy. Copies
/// end at every offset, run past `MAX_MATCH`, and are cut off when the
/// input ends inside one.
fn planted(pieces: &[(bool, usize, u64)], symbols: u8) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::new();
    for &(copy, len, seed) in pieces {
        if copy && !out.is_empty() {
            let from = out.len() - 1 - (seed as usize % out.len().min(WINDOW));
            for k in 0..len {
                out.push(out[from + k]);
            }
            let next = out[from + len];
            let breaker = (0..symbols).map(|s| b'a' + s).find(|&b| b != next);
            out.extend(breaker);
        } else {
            let mut rng = Prng::new(seed);
            out.extend((0..len).map(|_| b'a' + (rng.next_u64() % u64::from(symbols)) as u8));
        }
    }
    out
}

/// How a score stored by [`plain_search`] bounds the true value.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PlainBound {
    Exact,
    Lower,
    Upper,
}

/// [`plain_search`]'s transposition table: a std `HashMap` under the
/// default hasher, counting hits as `crafty::TransTable` does.
#[derive(Default)]
struct PlainTable {
    map: HashMap<crafty::Position, (u32, i32, PlainBound)>,
    hits: u64,
}

/// Alpha-beta over `crafty::moves`, ordered by `sort_by_key(evaluate)`.
fn plain_search(
    pos: crafty::Position,
    depth: u32,
    mut alpha: i32,
    beta: i32,
    tt: &mut PlainTable,
    meter: &mut WorkMeter,
) -> i32 {
    meter.add(1);
    if depth == 0 {
        return crafty::evaluate(pos);
    }
    if let Some(&(stored, score, bound)) = tt.map.get(&pos) {
        if stored >= depth {
            let usable = match bound {
                PlainBound::Exact => true,
                PlainBound::Lower => score >= beta,
                PlainBound::Upper => score <= alpha,
            };
            if usable {
                tt.hits += 1;
                return score;
            }
        }
    }
    let alpha_orig = alpha;
    let mut children = crafty::moves(pos);
    children.sort_by_key(|c| crafty::evaluate(*c));
    let mut best = i32::MIN + 1;
    for child in children {
        let score = -plain_search(child, depth - 1, -beta, -alpha, tt, meter);
        best = best.max(score);
        alpha = alpha.max(best);
        if alpha >= beta {
            break;
        }
    }
    let bound = if best <= alpha_orig {
        PlainBound::Upper
    } else if best >= beta {
        PlainBound::Lower
    } else {
        PlainBound::Exact
    };
    tt.map.insert(pos, (depth, best, bound));
    best
}

/// Strings over one to four symbols, random or periodic, up to 2 000
/// bytes long.
fn few_symbols() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (1u8..5, proptest::collection::vec(any::<u8>(), 0..2000))
            .prop_map(|(symbols, raw)| raw.into_iter().map(|b| b'a' + b % symbols).collect()),
        (proptest::collection::vec(b'a'..b'e', 1..5), 0usize..2000).prop_map(
            |(period, len): (Vec<u8>, usize)| period.into_iter().cycle().take(len).collect()
        ),
    ]
}

/// Matches of every length from 0 to past `MAX_MATCH`, so every offset
/// mod 8 at which the word compare can stop: 400 random bytes followed
/// by a copy of their first `len`, once broken by a differing byte and
/// once cut off by the end of the block, with and without a dictionary.
/// Random bytes hold no match of their own, so the copy starts a token
/// and its match is exactly as long as planted.
#[test]
fn identity_deflate_at_every_match_length() {
    let mut rng = Prng::new(0x164);
    let base: Vec<u8> = (0..400).map(|_| rng.next_u64() as u8).collect();
    for len in 0..=MAX_MATCH + 9 {
        let mut cut = base.clone();
        cut.extend_from_slice(&base[..len]);
        let mut broken = cut.clone();
        broken.push(!base[len]);
        broken.extend_from_slice(b"xyzw");
        for input in [&cut, &broken] {
            for dict in [0, 150] {
                let tokens = assert_deflate_is_plain(&input[..dict], &input[dict..]);
                let planted = gzip::Token::Match {
                    dist: 400,
                    len: len.min(MAX_MATCH) as u32,
                };
                assert!(len < MIN_MATCH || tokens.contains(&planted), "len {len}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(identity_cases()))]

    /// Random strings over one to four symbols, and periodic ones
    /// (`abab…`, all-equal), whose ranks stay tied until the doubling
    /// covers the whole string, so every pass runs.
    #[test]
    fn identity_bwt_sorts_like_the_plain_bwt(
        data in few_symbols()
    ) {
        let (mut fast, mut plain) = (WorkMeter::new(), WorkMeter::new());
        prop_assert_eq!(bzip2::bwt(&data, &mut fast), plain_bwt(&data, &mut plain));
        prop_assert_eq!(fast.total(), plain.total());
    }

    /// Planted-repeat inputs over one to three symbols, split anywhere
    /// into a dictionary and a block.
    #[test]
    fn identity_deflate_matches_like_the_byte_compare(
        pieces in proptest::collection::vec((any::<bool>(), 0usize..300, any::<u64>()), 0..16),
        symbols in 1u8..4,
        split in any::<usize>()
    ) {
        let input = planted(&pieces, symbols);
        let dict = split % (input.len() + 1);
        assert_deflate_is_plain(&input[..dict], &input[dict..]);
    }

    /// Random positions at depth 0–5, each searched twice on one table —
    /// first under a full or a narrow window, then under the full one,
    /// which reads the first search's entries — with the score, the
    /// nodes visited and the table hits equal after each.
    #[test]
    fn identity_search_visits_what_the_plain_search_visits(
        pos in any::<u64>(),
        depth in 0u32..6,
        narrow in any::<bool>(),
        alpha in -1100i32..1100,
        width in 1i32..300
    ) {
        let full = (i32::MIN + 1, i32::MAX - 1);
        let first = if narrow { (alpha, alpha + width) } else { full };
        let (mut tt, mut plain_tt) = (crafty::TransTable::new(), PlainTable::default());
        let (mut fast, mut plain) = (WorkMeter::new(), WorkMeter::new());
        for (a, b) in [first, full] {
            prop_assert_eq!(
                crafty::search(pos, depth, a, b, &mut tt, &mut fast),
                plain_search(pos, depth, a, b, &mut plain_tt, &mut plain)
            );
            prop_assert_eq!(fast.total(), plain.total());
            prop_assert_eq!(tt.hits, plain_tt.hits);
        }
    }
}
