//! 197.parser — sentence grammar checking (paper §4.3.2).
//!
//! A real chart parser: sentences are tagged and parsed bottom-up with a
//! small CNF grammar (CKY, `O(n³)` in sentence length), standing in for
//! the link-grammar parser of 197.parser. As in the paper:
//!
//! * every ordinary sentence is grammatically independent of every other,
//!   so `batch_process` parses sentences in parallel (phase B);
//! * a sentence may instead be a *command* (`!echo` style) that changes
//!   parser modes — commands are synchronized by placing them in phase A
//!   ("speculation is not required ... if these operations are placed
//!   into the phase A thread"), so no misspeculation occurs at all;
//! * the custom memory allocator (60 MB managed internally) is marked
//!   **Commutative** — allocation order across sentences is irrelevant.
//!
//! Scalability is limited only by the time to parse the longest sentence.

use crate::common::{InputSize, IrModel, Prng, WorkMeter, Workload};
use crate::meta::WorkloadMeta;
use crate::native::{Kernel, KernelLoop};
use seqpar::{IterationRecord, Technique};
use seqpar_analysis::profile::LoopProfile;
use seqpar_ir::{ExternEffect, FunctionBuilder, Opcode, Program};

/// Part-of-speech tags (terminals of the grammar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Determiner.
    Det,
    /// Noun.
    Noun,
    /// Verb.
    Verb,
    /// Adjective.
    Adj,
    /// Preposition.
    Prep,
}

/// Nonterminals of the CNF grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Nt {
    /// Sentence.
    S,
    /// Noun phrase.
    Np,
    /// Verb phrase.
    Vp,
    /// Prepositional phrase.
    Pp,
    /// Bare noun-ish nominal.
    Nom,
    /// Lexical determiner.
    TDet,
    /// Lexical noun.
    TNoun,
    /// Lexical verb.
    TVerb,
    /// Lexical adjective.
    TAdj,
    /// Lexical preposition.
    TPrep,
}

const NT_COUNT: usize = 10;

/// Binary rules `lhs -> (left, right)` of the CNF grammar.
const RULES: &[(Nt, Nt, Nt)] = &[
    (Nt::S, Nt::Np, Nt::Vp),
    (Nt::Np, Nt::TDet, Nt::Nom),
    (Nt::Nom, Nt::TAdj, Nt::Nom),
    (Nt::Np, Nt::Np, Nt::Pp),
    (Nt::Vp, Nt::TVerb, Nt::Np),
    (Nt::Vp, Nt::Vp, Nt::Pp),
    (Nt::Pp, Nt::TPrep, Nt::Np),
];

fn lexical(tag: Tag) -> Nt {
    match tag {
        Tag::Det => Nt::TDet,
        Tag::Noun => Nt::TNoun,
        Tag::Verb => Nt::TVerb,
        Tag::Adj => Nt::TAdj,
        Tag::Prep => Nt::TPrep,
    }
}

/// Unary promotions applied to chart cells (kept CNF-ish by closing once).
fn promote(mask: u16) -> u16 {
    let mut m = mask;
    // A bare noun is a nominal, and a nominal is a noun phrase.
    if m & (1 << Nt::TNoun as u16) != 0 {
        m |= 1 << Nt::Nom as u16;
    }
    if m & (1 << Nt::Nom as u16) != 0 {
        m |= 1 << Nt::Np as u16;
    }
    m
}

/// CKY parse: whether the tag sequence derives a sentence. Work is
/// accrued per (span, split, rule) combination actually inspected.
pub fn parse(tags: &[Tag], meter: &mut WorkMeter) -> bool {
    let n = tags.len();
    if n == 0 {
        return false;
    }
    // chart[i * n + j] = bitmask of nonterminals deriving tags[i..=j].
    // One flat allocation: the real parser's custom allocator hands out
    // chart rows from a contiguous 60 MB pool, and a vec-of-vecs here
    // would make per-sentence cost hostage to heap fragmentation.
    let mut chart = vec![0u16; n * n];
    for (i, &t) in tags.iter().enumerate() {
        chart[i * n + i] = promote(1 << lexical(t) as u16);
        meter.add(1);
    }
    for span in 2..=n {
        for i in 0..=n - span {
            let j = i + span - 1;
            let mut mask = 0u16;
            for k in i..j {
                let left = chart[i * n + k];
                let right = chart[(k + 1) * n + j];
                if left == 0 || right == 0 {
                    meter.add(1);
                    continue;
                }
                for &(lhs, l, r) in RULES {
                    meter.add(1);
                    if left & (1 << l as u16) != 0 && right & (1 << r as u16) != 0 {
                        mask |= 1 << lhs as u16;
                    }
                }
            }
            chart[i * n + j] = promote(mask);
        }
    }
    const { assert!(NT_COUNT <= 16, "bitmask chart needs <= 16 nonterminals") };
    chart[n - 1] & (1 << Nt::S as u16) != 0
}

/// A batch item: a sentence to parse or a parser command.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// An ordinary sentence (tag sequence).
    Sentence(Vec<Tag>),
    /// A command (e.g. toggling echo mode): must run in order.
    Command,
}

/// Generates a deterministic batch: mostly grammatical-ish sentences with
/// a heavy-tailed length distribution plus occasional commands.
pub fn generate_batch(count: usize, seed: u64) -> Vec<Item> {
    let mut rng = Prng::new(seed);
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        if rng.chance(0.02) {
            items.push(Item::Command);
            continue;
        }
        // Heavy-ish tail: most sentences short, some long.
        let u = rng.unit();
        let target = (5.0 + 28.0 * u * u) as usize;
        let tags = if rng.chance(0.55) {
            grammatical_sentence(&mut rng, target)
        } else {
            // Word salad of about the same length.
            (0..target.max(2))
                .map(|_| match rng.below(5) {
                    0 => Tag::Det,
                    1 => Tag::Noun,
                    2 => Tag::Verb,
                    3 => Tag::Adj,
                    _ => Tag::Prep,
                })
                .collect()
        };
        items.push(Item::Sentence(tags));
    }
    items
}

/// Builds a guaranteed-grammatical sentence of roughly `target` tags:
/// `NP Verb NP` extended with prepositional phrases and adjectives.
fn grammatical_sentence(rng: &mut Prng, target: usize) -> Vec<Tag> {
    fn noun_phrase(rng: &mut Prng, tags: &mut Vec<Tag>) {
        tags.push(Tag::Det);
        for _ in 0..rng.below(3) {
            tags.push(Tag::Adj);
        }
        tags.push(Tag::Noun);
    }
    let mut tags = Vec::with_capacity(target + 6);
    noun_phrase(rng, &mut tags);
    tags.push(Tag::Verb);
    noun_phrase(rng, &mut tags);
    while tags.len() < target {
        tags.push(Tag::Prep);
        noun_phrase(rng, &mut tags);
    }
    tags
}

/// The 197.parser workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parser;

/// parser's loop: one item of the batch an iteration. The tail is the
/// batch's running accepted-sentence count (the `results` accumulator
/// the IR model stores through).
struct Batch(Vec<Item>);

impl Kernel for Batch {
    type State = ();
    type Point = ();
    /// Whether the item was a sentence that parsed.
    type Seen = bool;
    type Book = ();
    const SPECULATIVE: bool = false;
    const SLOTS: usize = 1;

    fn start(&self) {}

    fn step(&self, _: &mut (), i: u64) -> Option<(Vec<u8>, u64, bool)> {
        let (verdict, work) = match self.0.get(i as usize)? {
            Item::Command => (2, 1),
            Item::Sentence(tags) => {
                let mut meter = WorkMeter::new();
                let ok = parse(tags, &mut meter);
                (u8::from(ok), meter.take().max(1))
            }
        };
        Some((vec![verdict], work, verdict == 1))
    }

    fn record(&self, _: &mut (), i: u64, work: u64, parsed: bool) -> IterationRecord {
        match &self.0[i as usize] {
            // Commands execute in phase A: cheap, synchronized.
            Item::Command => IterationRecord::new(8, 1, 1),
            // A tokenizes and reads; C prints the verdict.
            Item::Sentence(tags) => {
                let c_cost = if parsed { 4 } else { 2 };
                IterationRecord::new(tags.len() as u64, work, c_cost)
            }
        }
    }

    fn fold(&self, _: u64, verdict: &[u8], accepted: &mut [u64]) {
        accepted[0] += u64::from(verdict[0] == 1);
    }
}

impl Workload for Parser {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            spec_id: "197.parser",
            name: "parser",
            loops: &["batch_process (main.c:1522-1779)"],
            exec_time_pct: 100,
            lines_changed_all: 3,
            lines_changed_model: 3,
            techniques: &[
                Technique::Commutative,
                Technique::TlsMemory,
                Technique::Dswp,
            ],
            paper_speedup: 24.50,
            paper_threads: 32,
        }
    }

    fn kernel(&self, size: InputSize) -> KernelLoop {
        KernelLoop::new(Batch(generate_batch(500 * size.factor() as usize, 0x197)))
    }

    fn ir_model(&self) -> IrModel {
        let mut program = Program::new("197.parser");
        let arena = program.add_global("mem_pool", 60 << 10);
        let results = program.add_global("results", 1);
        program.declare_extern("read_sentence", ExternEffect::pure_fn());
        program.declare_extern(
            "xalloc",
            ExternEffect {
                reads: vec![arena],
                writes: vec![arena],
                ..Default::default()
            },
        );
        program.declare_extern("do_parse", ExternEffect::pure_fn());
        let mut b = FunctionBuilder::new("batch_process");
        let header = b.add_block("header");
        let exit = b.add_block("exit");
        b.jump(header);
        b.switch_to(header);
        let sent = b.call_ext("read_sentence", &[], None);
        b.label_last("read");
        // The internal allocator's arena is provably encapsulated, so
        // the audit pass infers Commutative without an annotation.
        let buf = b.call_ext("xalloc", &[sent], None);
        let verdict = b.call_ext("do_parse", &[sent, buf], None);
        b.label_last("parse");
        let ares = b.global_addr(results);
        let old = b.load(ares);
        let merged = b.binop(Opcode::Add, old, verdict);
        b.store(ares, merged);
        b.label_last("print");
        let zero = b.const_(0);
        let done = b.binop(Opcode::CmpEq, sent, zero);
        b.cond_branch(done, exit, header);
        b.switch_to(exit);
        b.ret(None);
        let func = b.finish(&mut program);
        IrModel {
            program,
            func,
            profile: LoopProfile::with_trip_count(800),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_sentence_parses() {
        // "the dog sees a cat"
        let mut m = WorkMeter::new();
        assert!(parse(
            &[Tag::Det, Tag::Noun, Tag::Verb, Tag::Det, Tag::Noun],
            &mut m
        ));
    }

    #[test]
    fn adjectives_and_pps_parse() {
        // "the big dog sees a cat in the house" (tags only)
        let tags = [
            Tag::Det,
            Tag::Adj,
            Tag::Noun,
            Tag::Verb,
            Tag::Det,
            Tag::Noun,
            Tag::Prep,
            Tag::Det,
            Tag::Noun,
        ];
        let mut m = WorkMeter::new();
        assert!(parse(&tags, &mut m));
    }

    #[test]
    fn word_salad_does_not_parse() {
        let mut m = WorkMeter::new();
        assert!(!parse(&[Tag::Prep, Tag::Prep, Tag::Det], &mut m));
        assert!(!parse(&[Tag::Verb], &mut m));
        assert!(!parse(&[], &mut m));
    }

    #[test]
    fn bare_plural_style_subject_parses() {
        // "dogs see cats": bare nouns promote to NPs.
        let mut m = WorkMeter::new();
        assert!(parse(&[Tag::Noun, Tag::Verb, Tag::Noun], &mut m));
    }

    #[test]
    fn parse_work_grows_superlinearly() {
        let short: Vec<Tag> = vec![Tag::Noun; 8];
        let long: Vec<Tag> = vec![Tag::Noun; 32];
        let mut ms = WorkMeter::new();
        let mut ml = WorkMeter::new();
        parse(&short, &mut ms);
        parse(&long, &mut ml);
        // 4x tokens should be far more than 8x work (O(n^3)).
        assert!(ml.total() > ms.total() * 8);
    }

    #[test]
    fn batch_contains_commands_and_heavy_tail() {
        let items = generate_batch(1000, 42);
        let commands = items.iter().filter(|i| matches!(i, Item::Command)).count();
        assert!(commands > 5 && commands < 60, "{commands} commands");
        let lens: Vec<usize> = items
            .iter()
            .filter_map(|i| match i {
                Item::Sentence(t) => Some(t.len()),
                Item::Command => None,
            })
            .collect();
        let max = *lens.iter().max().unwrap();
        let mean = lens.iter().sum::<usize>() / lens.len();
        assert!(max > mean * 2, "max {max} mean {mean}");
    }

    #[test]
    fn trace_is_speculation_free() {
        let t = Parser.trace(InputSize::Test);
        assert_eq!(t.misspec_rate(), 0.0);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn roughly_half_of_generated_sentences_parse() {
        let items = generate_batch(300, 7);
        let mut m = WorkMeter::new();
        let (mut yes, mut total) = (0, 0);
        for i in &items {
            if let Item::Sentence(tags) = i {
                total += 1;
                if parse(tags, &mut m) {
                    yes += 1;
                }
            }
        }
        let frac = yes as f64 / total as f64;
        assert!(frac > 0.1 && frac < 0.9, "parse fraction {frac}");
    }

    #[test]
    fn ir_model_uses_commutative_allocator() {
        let model = Parser.ir_model();
        let result = seqpar::Parallelizer::new(&model.program)
            .parallelize_outermost(model.func)
            .unwrap();
        assert!(result.report().uses(Technique::Commutative));
        assert!(result.partition().has_parallel_stage());
    }
}
