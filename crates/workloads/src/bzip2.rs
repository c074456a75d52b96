//! 256.bzip2 — Burrows–Wheeler block compression (paper §4.1.1).
//!
//! A real BWT pipeline: cyclic-rotation suffix ranking (prefix doubling),
//! move-to-front coding, and Huffman coding — the `compressStream` /
//! `doReversibleTransformation` / `moveToFrontCodeAndSend` structure of
//! bzip2. Blocks are compressed independently, so the parallelization is
//! pure DSWP with TLS-memory privatization of the per-block state: phase
//! A reads each block, phase B transforms it, phase C writes outputs in
//! order. No speculation events occur; the only limit is the small number
//! of blocks (the paper: "the input file's size ... only a few
//! independent blocks exist to compress in parallel").

use crate::common::{synthetic_text, InputSize, IrModel, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program};
use std::collections::BinaryHeap;

/// The Burrows–Wheeler transform of `data`: the last column of the sorted
/// cyclic-rotation matrix plus the row index of the original string.
///
/// Uses prefix doubling (`O(n log² n)`) over cyclic ranks; comparison work
/// is accrued into `meter`.
///
/// Each pass sorts rotations by the pair (rank of the rotation, rank of
/// the rotation `k` further on). The pair is packed into one `u64` per
/// rotation before the sort — the first rank in the high half, so the
/// integers order as the pairs do — and the comparator reads two keys
/// instead of rebuilding both pairs from `rank`, with a wrapping index,
/// on every one of the sort's `O(n log n)` comparisons.
///
/// The metered work is the number of comparisons the standard library's
/// `sort_unstable_by` makes, so `order` stays a `Vec<u32>` sorted by a
/// counting comparator: sorting the keys themselves, or `(key, index)`
/// pairs, would take a different path through the sort (the element type
/// selects its small-sort routine) and count different comparisons.
pub fn bwt(data: &[u8], meter: &mut WorkMeter) -> (Vec<u8>, usize) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut rank: Vec<u32> = data.iter().map(|&b| b as u32).collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut key = vec![0u64; n];
    let mut k = 1usize;
    let mut comparisons = 0u64;
    while k < n {
        for (i, slot) in key.iter_mut().enumerate() {
            // k < n, so one subtraction wraps the index.
            let j = if i + k < n { i + k } else { i + k - n };
            *slot = (u64::from(rank[i]) << 32) | u64::from(rank[j]);
        }
        order.sort_unstable_by(|&a, &b| {
            comparisons += 1;
            key[a as usize].cmp(&key[b as usize])
        });
        let mut r = 0u32;
        rank[order[0] as usize] = 0;
        for w in order.windows(2) {
            r += u32::from(key[w[0] as usize] != key[w[1] as usize]);
            rank[w[1] as usize] = r;
        }
        if r as usize == n - 1 {
            break; // all ranks distinct
        }
        k *= 2;
    }
    meter.add(comparisons);
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

/// Inverts the BWT.
///
/// # Panics
///
/// Panics if `orig_row` is out of range for a non-empty input.
pub fn inverse_bwt(last: &[u8], orig_row: usize) -> Vec<u8> {
    let n = last.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(orig_row < n, "row {orig_row} out of range");
    // LF mapping: count occurrences to find each symbol's position in the
    // first column.
    let mut counts = [0usize; 256];
    for &b in last {
        counts[b as usize] += 1;
    }
    let mut starts = [0usize; 256];
    let mut acc = 0;
    for s in 0..256 {
        starts[s] = acc;
        acc += counts[s];
    }
    let mut next = vec![0usize; n];
    let mut seen = [0usize; 256];
    for (i, &b) in last.iter().enumerate() {
        next[starts[b as usize] + seen[b as usize]] = i;
        seen[b as usize] += 1;
    }
    let mut out = Vec::with_capacity(n);
    let mut row = next[orig_row];
    for _ in 0..n {
        out.push(last[row]);
        row = next[row];
    }
    out
}

/// bzip2's initial run-length encoding (RLE1): runs of 4-255 equal bytes
/// become the 4 bytes plus a count byte — it defends the BWT sorter
/// against degenerate repeated input.
pub fn rle1_encode(data: &[u8], meter: &mut WorkMeter) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0;
    while i < data.len() {
        meter.add(1);
        let b = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == b && run < 255 + 4 {
            run += 1;
        }
        if run >= 4 {
            out.extend_from_slice(&[b, b, b, b, (run - 4) as u8]);
            meter.add(2);
        } else {
            for _ in 0..run {
                out.push(b);
            }
        }
        i += run;
    }
    out
}

/// Inverse of [`rle1_encode`].
pub fn rle1_decode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        // A run of four equal bytes is always followed by a count byte.
        if i + 3 < data.len() && data[i + 1] == b && data[i + 2] == b && data[i + 3] == b {
            let count = data.get(i + 4).copied().unwrap_or(0) as usize;
            for _ in 0..4 + count {
                out.push(b);
            }
            i += 5;
        } else {
            out.push(b);
            i += 1;
        }
    }
    out
}

/// Move-to-front coding.
pub fn mtf_encode(data: &[u8], meter: &mut WorkMeter) -> Vec<u8> {
    let mut table: Vec<u8> = (0..=255).collect();
    let mut out = Vec::with_capacity(data.len());
    for &b in data {
        let pos = table.iter().position(|&x| x == b).expect("byte in table");
        meter.add(1 + pos as u64 / 16);
        out.push(pos as u8);
        table.remove(pos);
        table.insert(0, b);
    }
    out
}

/// Inverse of [`mtf_encode`].
pub fn mtf_decode(codes: &[u8]) -> Vec<u8> {
    let mut table: Vec<u8> = (0..=255).collect();
    let mut out = Vec::with_capacity(codes.len());
    for &c in codes {
        let b = table[c as usize];
        out.push(b);
        table.remove(c as usize);
        table.insert(0, b);
    }
    out
}

/// A canonical Huffman coding of a byte stream: returns the bit-packed
/// payload and the code lengths table.
pub fn huffman_encode(data: &[u8], meter: &mut WorkMeter) -> (Vec<u8>, [u8; 256], usize) {
    let mut freq = [0u64; 256];
    for &b in data {
        freq[b as usize] += 1;
    }
    meter.add(data.len() as u64 / 8);
    let lengths = code_lengths(&freq);
    let codes = canonical_codes(&lengths);
    let mut bits: Vec<u8> = Vec::new();
    let mut cur = 0u8;
    let mut used = 0u8;
    let mut bit_count = 0usize;
    for &b in data {
        let (code, len) = codes[b as usize];
        for i in (0..len).rev() {
            cur = (cur << 1) | ((code >> i) & 1) as u8;
            used += 1;
            bit_count += 1;
            if used == 8 {
                bits.push(cur);
                cur = 0;
                used = 0;
            }
        }
        meter.add(1);
    }
    if used > 0 {
        bits.push(cur << (8 - used));
    }
    (bits, lengths, bit_count)
}

/// Decodes a Huffman payload produced by [`huffman_encode`].
pub fn huffman_decode(bits: &[u8], lengths: &[u8; 256], bit_count: usize) -> Vec<u8> {
    let codes = canonical_codes(lengths);
    // Build a (length, code) -> symbol map.
    let mut by_code: Vec<((u8, u32), u8)> = Vec::new();
    for (s, &(code, len)) in codes.iter().enumerate() {
        if len > 0 {
            by_code.push(((len, code), s as u8));
        }
    }
    by_code.sort_unstable();
    let mut out = Vec::new();
    let mut cur = 0u32;
    let mut len = 0u8;
    for i in 0..bit_count {
        let byte = bits[i / 8];
        let bit = (byte >> (7 - (i % 8))) & 1;
        cur = (cur << 1) | bit as u32;
        len += 1;
        if let Ok(pos) = by_code.binary_search_by(|probe| probe.0.cmp(&(len, cur))) {
            out.push(by_code[pos].1);
            cur = 0;
            len = 0;
        }
    }
    out
}

fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap by weight (reverse), tie-break on id for
            // determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut parents: Vec<Option<usize>> = vec![None; 512];
    let mut heap = BinaryHeap::new();
    let mut next_id = 256;
    for (s, &f) in freq.iter().enumerate() {
        if f > 0 {
            heap.push(Node { weight: f, id: s });
        }
    }
    if heap.len() == 1 {
        // Single-symbol stream: give it a 1-bit code.
        let only = heap.pop().expect("one node").id;
        let mut lengths = [0u8; 256];
        lengths[only] = 1;
        return lengths;
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        parents[a.id] = Some(next_id);
        parents[b.id] = Some(next_id);
        heap.push(Node {
            weight: a.weight + b.weight,
            id: next_id,
        });
        next_id += 1;
    }
    let mut lengths = [0u8; 256];
    for s in 0..256 {
        if freq[s] == 0 {
            continue;
        }
        let mut depth = 0u8;
        let mut cur = s;
        while let Some(p) = parents[cur] {
            depth += 1;
            cur = p;
        }
        lengths[s] = depth.clamp(1, 31);
    }
    lengths
}

fn canonical_codes(lengths: &[u8; 256]) -> [(u32, u8); 256] {
    let mut symbols: Vec<(u8, usize)> = (0..256)
        .filter(|&s| lengths[s] > 0)
        .map(|s| (lengths[s], s))
        .collect();
    symbols.sort_unstable();
    let mut codes = [(0u32, 0u8); 256];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for (len, s) in symbols {
        code <<= len - prev_len;
        codes[s] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

/// Compresses one block through the full pipeline; returns the compressed
/// bytes (header omitted).
pub fn compress_block(data: &[u8], meter: &mut WorkMeter) -> Vec<u8> {
    let rle = rle1_encode(data, meter);
    let (last, row) = bwt(&rle, meter);
    let mtf = mtf_encode(&last, meter);
    let (bits, _lengths, _count) = huffman_encode(&mtf, meter);
    let mut out = (row as u32).to_le_bytes().to_vec();
    out.extend(bits);
    out
}

/// The 256.bzip2 workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bzip2;

impl Bzip2 {
    /// Paper: block count is small (a few MB at high compression).
    const BLOCKS: usize = 10;
}

/// bzip2's loop: one block an iteration. Block compression is
/// block-local; the tail is the output stream's checksum and length, the
/// combined-CRC and bit-stream position a real bzip2 carries across
/// blocks.
struct Blocks(Vec<Vec<u8>>);

impl Kernel for Blocks {
    type State = ();
    type Point = ();
    /// The compressed block's length.
    type Seen = usize;
    type Book = ();
    const SPECULATIVE: bool = false;

    fn start(&self) {}

    fn step(&self, _: &mut (), i: u64) -> Option<(Vec<u8>, u64, usize)> {
        let mut meter = WorkMeter::new();
        let out = compress_block(self.0.get(i as usize)?, &mut meter);
        let len = out.len();
        Some((out, meter.take().max(1), len))
    }

    fn record(&self, _: &mut (), i: u64, work: u64, out: usize) -> IterationRecord {
        // A reads the block; C writes it in order.
        let a_cost = self.0[i as usize].len() as u64 / 8;
        IterationRecord::new(a_cost, work, out as u64 / 8)
    }
}

impl Workload for Bzip2 {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "256.bzip2",
            name: "bzip2",
            loops: &["compressStream (bzip2.c:2870-2919)"],
            exec_time_pct: 100,
            lines_changed_all: 0,
            lines_changed_model: 0,
            techniques: &[Technique::TlsMemory, Technique::Dswp],
            paper_speedup: 6.72,
            paper_threads: 12,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        let block = 6 * 1024 * size.factor() as usize;
        let input = synthetic_text(Self::BLOCKS * block, 0x256);
        KernelLoop::new(Blocks(input.chunks(block).map(<[u8]>::to_vec).collect()))
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("256.bzip2");
        let out_pos = program.add_global("out_pos", 1);
        program.declare_extern("read_block", ExternEffect::pure_fn());
        program.declare_extern("doReversibleTransformation", ExternEffect::pure_fn());
        program.declare_extern("moveToFrontCodeAndSend", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("compressStream");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        // Phase A: read; block is privatized by the TLS memory.
        let block = b.call_ext("read_block", &[], None);
        b.label_last("read");
        // Phase B: the two transformation calls (pure on private state).
        let t = b.call_ext("doReversibleTransformation", &[block], None);
        let coded = b.call_ext("moveToFrontCodeAndSend", &[t], None);
        // Phase C: buffered writes land once the position is known.
        let apos = b.global_addr(out_pos);
        let pos = b.load(apos);
        let newpos = b.binop(Opcode::Add, pos, coded);
        b.store(apos, newpos);
        b.label_last("write");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, block, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        IrModel {
            program,
            func,
            profile: LoopProfile::with_trip_count(Self::BLOCKS as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bwt_round_trips() {
        let data = synthetic_text(2000, 1);
        let mut m = WorkMeter::new();
        let (last, row) = bwt(&data, &mut m);
        assert_eq!(inverse_bwt(&last, row), data);
        assert!(m.total() > 0);
    }

    #[test]
    fn bwt_of_banana() {
        let mut m = WorkMeter::new();
        let (last, row) = bwt(b"banana", &mut m);
        assert_eq!(inverse_bwt(&last, row), b"banana");
    }

    #[test]
    fn bwt_groups_similar_context_bytes() {
        // On English-like text the BWT's output has long runs; measure
        // adjacent-equal pairs before and after.
        let data = synthetic_text(4000, 2);
        let runs = |d: &[u8]| d.windows(2).filter(|w| w[0] == w[1]).count();
        let mut m = WorkMeter::new();
        let (last, _) = bwt(&data, &mut m);
        assert!(
            runs(&last) > runs(&data) * 2,
            "{} vs {}",
            runs(&last),
            runs(&data)
        );
    }

    #[test]
    fn bwt_handles_degenerate_inputs() {
        let mut m = WorkMeter::new();
        assert_eq!(bwt(&[], &mut m).0, Vec::<u8>::new());
        let (last, row) = bwt(&[7], &mut m);
        assert_eq!(inverse_bwt(&last, row), vec![7]);
        let (last, row) = bwt(&[5; 64], &mut m);
        assert_eq!(inverse_bwt(&last, row), vec![5; 64]);
    }

    #[test]
    fn mtf_round_trips_and_prefers_small_codes_on_runs() {
        let data = b"aaaabbbbccccaaaa".to_vec();
        let mut m = WorkMeter::new();
        let codes = mtf_encode(&data, &mut m);
        assert_eq!(mtf_decode(&codes), data);
        let small = codes.iter().filter(|&&c| c < 4).count();
        assert!(small > codes.len() / 2);
    }

    #[test]
    fn huffman_round_trips() {
        let data = synthetic_text(3000, 3);
        let mut m = WorkMeter::new();
        let mtf = mtf_encode(&data, &mut m);
        let (bits, lengths, count) = huffman_encode(&mtf, &mut m);
        assert_eq!(huffman_decode(&bits, &lengths, count), mtf);
        assert!(bits.len() < mtf.len(), "huffman must compress mtf output");
    }

    #[test]
    fn huffman_single_symbol_stream() {
        let data = vec![9u8; 100];
        let mut m = WorkMeter::new();
        let (bits, lengths, count) = huffman_encode(&data, &mut m);
        assert_eq!(huffman_decode(&bits, &lengths, count), data);
        assert_eq!(bits.len(), 13); // 100 bits
    }

    #[test]
    fn rle1_round_trips() {
        let mut m = WorkMeter::new();
        let cases: Vec<Vec<u8>> = vec![
            b"abcabc".to_vec(),
            b"aaaa".to_vec(),
            b"aaaabbbbbbbbbbcc".to_vec(),
            vec![7u8; 500],
            Vec::new(),
            synthetic_text(3000, 5),
        ];
        for data in cases {
            let enc = rle1_encode(&data, &mut m);
            assert_eq!(
                rle1_decode(&enc),
                data,
                "input {:?}...",
                &data[..data.len().min(8)]
            );
        }
    }

    #[test]
    fn rle1_shrinks_degenerate_runs() {
        let mut m = WorkMeter::new();
        let runs = vec![9u8; 10_000];
        let enc = rle1_encode(&runs, &mut m);
        assert!(enc.len() < 300, "{} bytes", enc.len());
    }

    #[test]
    fn full_pipeline_compresses_text() {
        let data = synthetic_text(8000, 4);
        let mut m = WorkMeter::new();
        let out = compress_block(&data, &mut m);
        assert!(
            out.len() < data.len() * 7 / 10,
            "{} vs {}",
            out.len(),
            data.len()
        );
    }

    #[test]
    fn trace_has_few_independent_blocks() {
        let t = Bzip2.trace(InputSize::Test);
        assert_eq!(t.len(), Bzip2::BLOCKS);
        assert_eq!(t.misspec_rate(), 0.0);
        assert!(!t.speculative);
        // Transformation dominates read/write.
        let a: u64 = t.records().iter().map(|r| r.a_cost).sum();
        let b: u64 = t.records().iter().map(|r| r.b_cost).sum();
        assert!(b > 5 * a, "a={a} b={b}");
    }

    #[test]
    fn ir_model_is_pure_dswp() {
        let model = Bzip2.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.partition().has_parallel_stage());
        assert!(result.speculation().is_empty());
        assert!(!result.report().uses(Technique::Commutative));
    }
}
