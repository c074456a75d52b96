//! Pins what every kernel's sequential oracle commits, across commits.

use seqpar_workloads::common::fnv1a;
use seqpar_workloads::{all_workloads, InputSize};

/// Nothing else in tier-1 pins a kernel's committed bytes across commits:
/// the differential suites hold a native run to the sequential oracle of
/// the same build, so an edit that changes a kernel's output changes both
/// sides and passes them. One row per kernel at `InputSize::Test`:
/// `sequential().work`, the output's length and its FNV-1a digest. The
/// constants were generated at the commit before bzip2's BWT, gzip's
/// matcher and crafty's search were made cheaper, which moved none of
/// them; a change that is meant to move a kernel regenerates them and
/// says so.
///
/// bzip2's work is mostly the number of comparisons the standard
/// library's `sort_unstable_by` makes inside `bzip2::bwt`. A toolchain
/// whose sort takes a different path therefore moves bzip2's work — and
/// every simulated cost built from it — with no edit to this repository,
/// and this test is where that shows.
#[test]
fn oracle_output_of_every_kernel_is_pinned() {
    const PINNED: [(&str, u64, usize, u64); 11] = [
        ("164.gzip", 1_023_023, 193_028, 0xa076_e083_1ac6_90ea),
        ("175.vpr", 106_692, 57_000, 0x36c3_dfa1_6256_da5c),
        ("176.gcc", 126_577, 15_020, 0xb5e9_12ac_4021_82ea),
        ("181.mcf", 143_485, 1_435, 0xc423_ae38_637d_ebdb),
        ("186.crafty", 53_502, 5_800, 0x42e6_37b6_8eb9_4e56),
        ("197.parser", 740_628, 4_500, 0x2b67_de57_d2c7_a15a),
        ("253.perlbmk", 5_202, 8_480, 0xd098_a6be_fdf2_1a44),
        ("254.gap", 7_606, 10_000, 0x1a28_8850_0796_2f48),
        ("255.vortex", 38_866, 15_000, 0xf9b5_026b_3c74_fb59),
        ("256.bzip2", 3_767_930, 19_139, 0x6e71_caaf_ef3f_3c18),
        ("300.twolf", 560_734, 24_990, 0x425d_6abe_1e16_1872),
    ];
    let suite = all_workloads();
    assert_eq!(suite.len(), PINNED.len());
    for (w, (spec_id, work, len, digest)) in suite.iter().zip(PINNED) {
        assert_eq!(w.meta().spec_id, spec_id);
        let seq = w.versioned_job(InputSize::Test).sequential();
        let got = (seq.work, seq.output.len(), fnv1a(seq.output));
        assert_eq!(
            got,
            (work, len, digest),
            "{spec_id}: (work, length, fnv1a {:#018x})",
            got.2
        );
    }
}
