//! 164.gzip — LZ77 (deflate-style) compression (paper §4.4.1).
//!
//! The kernel is a real LZ77 compressor with a hash-chain matcher, the
//! algorithm of gzip's `deflate` loop. The paper's parallelization
//! observes that gzip decides *adaptively* when to end a block (based on
//! compression achieved so far), which makes block boundaries
//! unpredictable and blocks impossible to compress in parallel. The fix —
//! identical to the hand-parallelized `pigz` — is to start a new block at
//! a fixed interval, trading ≤1% compression for parallelism, and the
//! **Y-branch** annotation is how the programmer hands that choice to the
//! compiler (Figure 1).
//!
//! Phase A reads each block, the replicated phase B runs `deflate_block`,
//! and phase C concatenates outputs in order.

use crate::common::{synthetic_text, InputSize, IrModel, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program, YBranchHint};

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 3;
/// Maximum match length (as in deflate).
const MAX_MATCH: usize = 258;
/// Window size the matcher may reference backwards. Deliberately small
/// relative to the block size so fixed-interval blocking costs little
/// compression (the paper's <1% claim holds when blocks are many windows
/// long, as pigz's 128 KB blocks are vs gzip's 32 KB window).
const WINDOW: usize = 1 << 11;
/// Hash-chain search depth.
const MAX_CHAIN: usize = 32;

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Backwards distance (1-based).
        dist: u32,
        /// Match length.
        len: u32,
    },
}

/// The length of the longest common prefix of `a` and `b` (of equal
/// length), compared eight bytes at a time. In the first word that
/// differs, the lowest set bit of the XOR of the two little-endian loads
/// lies in the first differing byte, so `trailing_zeros() / 8` counts the
/// equal bytes before it: the result — and so every token and every
/// work unit metered from it — is the byte-at-a-time loop's. The tail
/// shorter than a word is compared byte by byte.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("an 8-byte chunk"));
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..]
        .iter()
        .zip(&b[l..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Compresses one block, accruing real work into `meter`.
pub fn deflate_block(data: &[u8], meter: &mut WorkMeter) -> Vec<Token> {
    deflate_block_primed(&[], data, meter)
}

/// Compresses one block with the matcher *primed* by `dict` — the last
/// window of raw input preceding the block.
///
/// This is pigz's trick (and the reason fixed blocking loses so little
/// compression): the dictionary is raw *input*, which the sequential
/// phase-A reader already has, so priming costs no parallelism. Tokens
/// are emitted only for `data`; matches may reach back into `dict`.
pub fn deflate_block_primed(dict: &[u8], data: &[u8], meter: &mut WorkMeter) -> Vec<Token> {
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
    // Seed the hash chains with the dictionary positions.
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
                // Compare candidate match.
                let limit = (data.len() - i).min(MAX_MATCH);
                let l = common_prefix(&data[c..c + limit], &data[i..i + limit]);
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
            tokens.push(Token::Match {
                dist: best_dist as u32,
                len: best_len as u32,
            });
            // Insert hash entries for the skipped positions (lazily, as
            // gzip's fast mode does) and advance.
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
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Decompresses a token stream (inverse of [`deflate_block`]).
///
/// # Panics
///
/// Panics if a match references data before the start of the output.
pub fn inflate(tokens: &[Token]) -> Vec<u8> {
    inflate_primed(&[], tokens)
}

/// Decompresses a token stream produced by [`deflate_block_primed`]:
/// matches may reference the dictionary.
pub fn inflate_primed(dict: &[u8], tokens: &[Token]) -> Vec<u8> {
    let mut out = dict.to_vec();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { dist, len } => {
                let start = out.len() - dist as usize;
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out.split_off(dict.len())
}

/// Encodes tokens as bytes (a fixed-width stand-in for Huffman coding,
/// good enough to compare compressed sizes).
pub fn encode(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                out.push(0);
                out.push(b);
            }
            Token::Match { dist, len } => {
                out.push(1);
                out.extend_from_slice(&(dist as u16).to_le_bytes());
                out.push(len.min(255) as u8);
            }
        }
    }
    out
}

/// How block boundaries are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockMode {
    /// gzip's original heuristic: end a block when compression on the
    /// current block degrades — content-dependent and unpredictable, so
    /// blocks cannot be compressed in parallel.
    Adaptive,
    /// Fixed-interval boundaries (the Y-branch / pigz choice).
    Fixed(usize),
}

/// Splits `data` into blocks under `mode`.
pub fn split_blocks(data: &[u8], mode: BlockMode) -> Vec<&[u8]> {
    match mode {
        BlockMode::Fixed(size) => data.chunks(size.max(1)).collect(),
        BlockMode::Adaptive => {
            // Model of gzip's heuristic: end the block when the running
            // literal ratio over the last stretch exceeds a threshold,
            // checked every 512 bytes — the boundary depends on content.
            let mut blocks = Vec::new();
            let mut start = 0usize;
            let mut probe = Prober::default();
            for (i, &b) in data.iter().enumerate() {
                probe.push(b);
                if i - start >= 1024 && probe.should_flush() {
                    blocks.push(&data[start..=i]);
                    start = i + 1;
                    probe = Prober::default();
                }
            }
            if start < data.len() {
                blocks.push(&data[start..]);
            }
            blocks
        }
    }
}

#[derive(Default)]
struct Prober {
    seen: u32,
    matches: u32,
    recent: [u8; 4],
}

impl Prober {
    fn push(&mut self, b: u8) {
        if self.seen >= 4 && self.recent[(self.seen % 4) as usize] == b {
            self.matches += 1;
        }
        self.recent[(self.seen % 4) as usize] = b;
        self.seen += 1;
    }

    fn should_flush(&self) -> bool {
        // gzip's heuristic shape: give up on the current block when the
        // recent data stopped repeating (poor compression), or cap the
        // block length. Both conditions depend on the content seen.
        self.seen >= 1024 && (self.matches * 3 < self.seen || self.seen >= 8192)
    }
}

/// The 164.gzip workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gzip;

impl Gzip {
    /// gzip's loop over its input at `size`, cut into blocks by `mode`,
    /// each block primed by up to a window of the input before it.
    fn deflate(&self, size: InputSize, mode: BlockMode) -> Deflate {
        let data = synthetic_text(256 * 1024 * size.factor() as usize, 0x164);
        let blocks = split_blocks(&data, mode);
        let mut consumed = 0;
        let spans = blocks
            .iter()
            .map(|block| {
                let start = consumed;
                consumed += block.len();
                (start.saturating_sub(WINDOW), start, consumed)
            })
            .collect();
        Deflate { data, spans }
    }

    /// Compression ratio (compressed/original) under a block mode — used
    /// to verify the paper's "<1% compression loss" claim.
    pub fn compression_ratio(&self, size: InputSize, mode: BlockMode) -> f64 {
        let deflate = self.deflate(size, mode);
        let blocks = (0..).map_while(|i| deflate.step(&mut (), i));
        let total: usize = blocks.map(|(.., encoded)| encoded).sum();
        total as f64 / deflate.data.len() as f64
    }
}

/// gzip's loop: one block an iteration, its `(dictionary start, start,
/// end)` in the input. Fixed boundaries plus raw-input priming make
/// blocks truly independent: no speculation events; the per-block
/// dictionary is privatized by the TLS memory. The tail is the deflate
/// stream's rolling checksum and compressed length so far.
struct Deflate {
    data: Vec<u8>,
    spans: Vec<(usize, usize, usize)>,
}

impl Kernel for Deflate {
    type State = ();
    type Point = ();
    /// The encoded block's length.
    type Seen = usize;
    type Book = ();
    const SPECULATIVE: bool = false;

    fn start(&self) {}

    fn step(&self, _: &mut (), i: u64) -> Option<(Vec<u8>, u64, usize)> {
        let &(dict, start, end) = self.spans.get(i as usize)?;
        let mut meter = WorkMeter::new();
        let tokens =
            deflate_block_primed(&self.data[dict..start], &self.data[start..end], &mut meter);
        let encoded = encode(&tokens);
        let len = encoded.len();
        Some((encoded, meter.take().max(1), len))
    }

    fn record(&self, _: &mut (), i: u64, work: u64, encoded: usize) -> IterationRecord {
        // A reads the block and its priming window in, B compresses, C
        // writes the encoded output in order.
        let (_, start, end) = self.spans[i as usize];
        let a_cost = (end - start + WINDOW) as u64 / 16;
        IterationRecord::new(a_cost, work, encoded as u64 / 8)
    }
}

impl Workload for Gzip {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "164.gzip",
            name: "gzip",
            loops: &[
                "deflate_fast (deflate.c:583-655)",
                "deflate (deflate.c:664-762)",
            ],
            exec_time_pct: 100,
            lines_changed_all: 26,
            lines_changed_model: 2,
            techniques: &[Technique::YBranch, Technique::TlsMemory, Technique::Dswp],
            paper_speedup: 29.91,
            paper_threads: 32,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        // Scaled-down pigz blocks: 16 windows long, many blocks per run.
        KernelLoop::new(self.deflate(size, BlockMode::Fixed(32 * 1024)))
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("164.gzip");
        let dict = program.add_global("dict", 1 << 15);
        let out = program.add_global("out_stream", 1);
        program.declare_extern("read_block", ExternEffect::pure_fn());
        program.declare_extern(
            "compress",
            ExternEffect {
                reads: vec![dict],
                writes: vec![dict],
                ..Default::default()
            },
        );
        let mut b = FunctionBuilder::new("deflate");
        let header = b.add_block("header");
        let reset = b.add_block("reset_dict");
        let latch = b.add_block("latch");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let block = b.call_ext("read_block", &[], None);
        b.label_last("read");
        let profitable = b.call_ext("compress", &[block], None);
        b.label_last("compress");
        // Figure 1a: the dictionary restart is a Y-branch.
        b.ybranch(profitable, reset, latch, YBranchHint::new(0.00001));
        b.switch_to(reset);
        let adict = b.global_addr(dict);
        let zero = b.const_(0);
        b.store(adict, zero);
        b.label_last("restart_dictionary");
        b.jump(latch);
        b.switch_to(latch);
        let aout = b.global_addr(out);
        let old = b.load(aout);
        let merged = b.binop(Opcode::Add, old, profitable);
        b.store(aout, merged);
        b.label_last("write_out");
        let zero2 = b.const_(0);
        let done = b.binop(Opcode::CmpEq, block, zero2);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        IrModel {
            program,
            func,
            profile: LoopProfile::with_trip_count(256),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deflate_round_trips() {
        let data = synthetic_text(20_000, 7);
        let mut m = WorkMeter::new();
        let tokens = deflate_block(&data, &mut m);
        assert_eq!(inflate(&tokens), data);
        assert!(m.total() > 0);
    }

    #[test]
    fn compressible_text_actually_compresses() {
        let data = synthetic_text(50_000, 3);
        let mut m = WorkMeter::new();
        let tokens = deflate_block(&data, &mut m);
        let ratio = encode(&tokens).len() as f64 / data.len() as f64;
        assert!(ratio < 0.75, "ratio {ratio}");
    }

    #[test]
    fn incompressible_data_stays_near_literal() {
        let mut rng = crate::common::Prng::new(11);
        let data: Vec<u8> = (0..10_000).map(|_| rng.next_u64() as u8).collect();
        let mut m = WorkMeter::new();
        let tokens = deflate_block(&data, &mut m);
        assert_eq!(inflate(&tokens), data);
        let literals = tokens
            .iter()
            .filter(|t| matches!(t, Token::Literal(_)))
            .count();
        assert!(literals as f64 / tokens.len() as f64 > 0.8);
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        let mut m = WorkMeter::new();
        assert!(deflate_block(&[], &mut m).is_empty());
        assert!(inflate(&[]).is_empty());
    }

    #[test]
    fn fixed_blocks_have_exact_boundaries() {
        let data = synthetic_text(10_000, 5);
        let blocks = split_blocks(&data, BlockMode::Fixed(4096));
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].len(), 4096);
        assert_eq!(blocks[2].len(), 10_000 - 8192);
    }

    #[test]
    fn adaptive_blocks_depend_on_content() {
        let text = synthetic_text(40_000, 5);
        let blocks_text = split_blocks(&text, BlockMode::Adaptive);
        let uniform = vec![b'a'; 40_000];
        let blocks_uniform = split_blocks(&uniform, BlockMode::Adaptive);
        // Different content, different boundaries.
        assert_ne!(
            blocks_text.iter().map(|b| b.len()).collect::<Vec<_>>(),
            blocks_uniform.iter().map(|b| b.len()).collect::<Vec<_>>()
        );
        // All input covered either way.
        assert_eq!(blocks_text.iter().map(|b| b.len()).sum::<usize>(), 40_000);
        assert_eq!(
            blocks_uniform.iter().map(|b| b.len()).sum::<usize>(),
            40_000
        );
    }

    #[test]
    fn fixed_blocking_costs_under_one_percent_compression() {
        let g = Gzip;
        let fixed = g.compression_ratio(InputSize::Test, BlockMode::Fixed(8 * 1024));
        let whole = g.compression_ratio(InputSize::Test, BlockMode::Fixed(usize::MAX));
        let loss = fixed - whole;
        assert!(loss >= 0.0, "blocking can only lose compression");
        assert!(loss < 0.01, "paper reports <1% loss; got {loss}");
    }

    #[test]
    fn trace_is_misspeculation_free_and_b_dominated() {
        let t = Gzip.trace(InputSize::Test);
        assert!(t.len() >= 8, "{} blocks", t.len());
        assert_eq!(t.misspec_rate(), 0.0);
        let a: u64 = t.records().iter().map(|r| r.a_cost).sum();
        let b: u64 = t.records().iter().map(|r| r.b_cost).sum();
        let c: u64 = t.records().iter().map(|r| r.c_cost).sum();
        assert!(b > 10 * (a + c), "B must dominate: a={a} b={b} c={c}");
    }

    #[test]
    fn ir_model_parallelizes_with_ybranch() {
        let model = Gzip.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .profile(model.profile.clone())
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::YBranch));
        assert!(result.partition().has_parallel_stage());
    }
}
