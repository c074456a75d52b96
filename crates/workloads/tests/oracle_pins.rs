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

/// FNV-1a over every record's `(a, b, c, misspec_on)`, little-endian,
/// with no misspeculation read as `u64::MAX`.
fn trace_digest(trace: &seqpar::IterationTrace) -> u64 {
    fnv1a(trace.records().iter().flat_map(|r| {
        [
            r.a_cost,
            r.b_cost,
            r.c_cost,
            r.misspec_on.unwrap_or(u64::MAX),
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

/// The same pins at `InputSize::Train`, plus a digest of every trace
/// record: a kernel's pass runs at every size, and `Test` exercises only
/// the shortest. Several seconds in a debug build, so tier-1 skips it and
/// CI's `test` job runs it in release. The constants were generated at
/// the commit before each kernel's trace, checksum and restore-point
/// passes were folded into one walk of its loop, which moved none of
/// them.
#[test]
#[ignore = "Train size; CI runs it in release"]
fn oracle_output_of_every_kernel_is_pinned_at_train() {
    #[rustfmt::skip]
    const PINNED: [(&str, u64, usize, u64, u64); 11] = [
        ("164.gzip", 4_097_835, 773_092, 0xe5b7_df5b_940f_b647, 0xe073_11a2_2bea_450d),
        ("175.vpr", 417_367, 228_000, 0x8816_cd33_8c39_f664, 0x4d15_a628_add9_fff2),
        ("176.gcc", 170_653, 20_011, 0x2185_594c_fec7_1049, 0x7376_01e6_4c36_1e5a),
        ("181.mcf", 746_560, 1_886, 0x1870_c123_aa4b_547c, 0x5cbd_f75d_ec6d_44ab),
        ("186.crafty", 247_523, 6_960, 0xa923_e86e_4dbc_f396, 0x7b79_bba3_cba8_7528),
        ("197.parser", 3_267_857, 18_000, 0x56fc_e008_f34c_53ee, 0x0777_6b45_5ad4_fe54),
        ("253.perlbmk", 21_134, 34_192, 0x44cc_d760_f543_3409, 0x1eea_1be6_898e_1695),
        ("254.gap", 39_586, 40_000, 0x674c_ace2_0db4_b25a, 0x4a23_9ddd_153c_dce1),
        ("255.vortex", 152_237, 60_000, 0x8b13_299f_a746_979d, 0x8b86_c6c3_023b_2072),
        ("256.bzip2", 16_293_037, 73_223, 0x5a2d_5fc4_e6b1_1e3f, 0xcb7f_6655_0730_2435),
        ("300.twolf", 2_224_334, 99_960, 0x1d9a_b182_0e42_30b3, 0xa3b0_edf0_a60b_350a),
    ];
    let suite = all_workloads();
    assert_eq!(suite.len(), PINNED.len());
    for (w, (spec_id, work, len, digest, records)) in suite.iter().zip(PINNED) {
        assert_eq!(w.meta().spec_id, spec_id);
        let job = w.versioned_job(InputSize::Train);
        let seq = job.sequential();
        let got = (
            seq.work,
            seq.output.len(),
            fnv1a(seq.output),
            trace_digest(job.trace()),
        );
        assert_eq!(
            got,
            (work, len, digest, records),
            "{spec_id}: (work, length, fnv1a {:#018x}, records {:#018x})",
            got.2,
            got.3
        );
    }
}
