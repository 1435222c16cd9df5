//! Cross-commit identity of the three Theorem-12 suite families.
//!
//! Each family (fork-join mergesort, wavefront stencil, bounded-backpressure
//! pipeline) is reachable through two entry points: the suite function the
//! experiment tables call and `ShapeSpec::build_into`, the path the server
//! runs. For every grid point this suite folds the built DAG — node and
//! thread counts, then per node its kind, thread, block and out-edges in
//! order — into an FNV-1a digest and compares it with a constant recorded
//! before the two sets of builders were merged into one. Where the shape is
//! wire-encodable, both entry points must produce the recorded digest, and
//! the declared footprint must equal the built block space. A deliberate
//! change to a family's node order or block numbering re-records its
//! constants (the failure message prints the new list).

use wsf_dag::{Dag, DagBuilder, EdgeKind};
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};
use wsf_workloads::{backpressure, sort, stencil};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn digest(dag: &Dag) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, dag.num_nodes() as u64);
    h = fnv1a(h, dag.num_threads() as u64);
    for id in dag.node_ids() {
        let node = dag.node(id);
        h = fnv1a(
            h,
            u64::from(node.is_fork()) | u64::from(node.is_touch()) << 1,
        );
        h = fnv1a(h, node.thread().index() as u64);
        h = fnv1a(h, dag.block_of(id).map_or(u64::MAX, |b| u64::from(b.0)));
        h = fnv1a(h, node.out_edges().len() as u64);
        for e in node.out_edges() {
            let kind = match e.kind {
                EdgeKind::Continuation => 0,
                EdgeKind::Future => 1,
                EdgeKind::Touch => 2,
            };
            h = fnv1a(h, (e.node.index() as u64) << 2 | kind);
        }
    }
    h
}

/// Digests every grid point from the suite function and, where `spec`
/// yields one, from `ShapeSpec::build_into` through one recycled builder
/// (as the server uses it), and compares the list with `golden`.
fn check<P: Copy + std::fmt::Debug>(
    golden: &[(P, u64)],
    suite: impl Fn(P) -> Dag,
    spec: impl Fn(P) -> Option<ShapeSpec>,
) {
    let mut b = DagBuilder::new();
    let mut scratch = ShapeScratch::new();
    let mut listing = String::new();
    let mut same = true;
    for &(p, want) in golden {
        let dag = suite(p);
        let got = digest(&dag);
        same &= got == want;
        listing.push_str(&format!("    ({p:?}, {got:#018x}),\n"));
        if let Some(spec) = spec(p) {
            let built = spec.build_into(&mut b, &mut scratch);
            assert_eq!(digest(&built), got, "{spec:?}: build_into vs suite");
            assert_eq!(spec.footprint(), built.block_space() as u64, "{spec:?}");
            assert_eq!(built.block_space(), dag.block_space(), "{spec:?}");
            b.recycle(built);
        }
    }
    assert!(
        same,
        "built DAGs differ from the recorded digests; measured:\n{listing}"
    );
}

/// `(len, grain)`; unit-grain power-of-two lengths are wire-encodable.
const MERGESORT: [((usize, usize), u64); 16] = [
    ((1, 1), 0xb824_1200_083b_814b),
    ((2, 1), 0xe915_b647_40c1_44b3),
    ((4, 1), 0x6c45_5758_79be_e768),
    ((8, 1), 0x5a45_39fa_c5c3_a37e),
    ((16, 1), 0x9c3c_de1b_b0b4_ebba),
    ((32, 1), 0xe9a6_a135_38ee_e317),
    ((64, 1), 0x459b_d9bd_dae3_dbe4),
    ((128, 1), 0x1df7_fd1d_788e_029b),
    ((256, 1), 0xf58a_826d_a23b_9dca),
    ((512, 1), 0xb370_c59a_6c87_3114),
    ((3, 4), 0xb824_1200_083b_814b),
    ((6, 1), 0x3ceb_1287_7d85_07d3),
    ((100, 7), 0x0609_4f70_704c_6662),
    ((256, 16), 0x9c3c_de1b_b0b4_ebba),
    ((1000, 3), 0x80ed_9d75_97c5_d8e2),
    ((65_536, 64), 0x624a_9f29_0342_941f),
];

#[test]
fn mergesort_matches_recorded_digests() {
    check(
        &MERGESORT,
        |(len, grain)| sort::mergesort(len, grain),
        |(len, grain)| {
            (grain == 1 && len.is_power_of_two())
                .then_some(ShapeSpec::Mergesort { leaves: len as u32 })
        },
    );
}

/// `(rows, width, steps)`: the differential grid plus the `Scale::Full`
/// table shape.
const STENCIL: [((usize, usize, usize), u64); 37] = [
    ((1, 1, 1), 0xb824_1200_083b_814b),
    ((1, 1, 2), 0x6118_eba0_20cc_c491),
    ((1, 1, 5), 0x85a1_bd2e_a2af_617f),
    ((1, 2, 1), 0x44dd_9b1d_fd33_49f0),
    ((1, 2, 2), 0x787c_6906_0a30_6177),
    ((1, 2, 5), 0xe0e3_34f1_6ea4_1738),
    ((1, 16, 1), 0x3778_1c9a_f4a5_a143),
    ((1, 16, 2), 0x385d_e4ff_4eed_0293),
    ((1, 16, 5), 0xdff6_f8bb_26a6_d7cf),
    ((2, 1, 1), 0x67a1_cb1b_ea06_dd7f),
    ((2, 1, 2), 0x8288_0fe9_0b80_d7d2),
    ((2, 1, 5), 0x7a79_7000_c5f5_018b),
    ((2, 2, 1), 0xbf6c_403b_bebc_2747),
    ((2, 2, 2), 0x24a7_424e_15c5_55b2),
    ((2, 2, 5), 0xd7d6_cfbd_0941_6ed3),
    ((2, 16, 1), 0xbe32_09cf_776e_f39f),
    ((2, 16, 2), 0xf0a4_dfb8_90de_2811),
    ((2, 16, 5), 0xd87f_dccb_0918_ee1d),
    ((3, 1, 1), 0xf01d_2869_523b_1530),
    ((3, 1, 2), 0x1dfb_5d5e_07d8_1751),
    ((3, 1, 5), 0xa3fe_47d9_ec8f_9c7c),
    ((3, 2, 1), 0x9ca2_8829_f530_d227),
    ((3, 2, 2), 0x0061_9924_9b57_611f),
    ((3, 2, 5), 0xb8d9_ac2a_4af2_42af),
    ((3, 16, 1), 0xa437_8767_cb44_be40),
    ((3, 16, 2), 0xc84e_170d_c3b8_9cb8),
    ((3, 16, 5), 0x4e1a_8973_c9ee_7bf9),
    ((8, 1, 1), 0x9c54_1c44_3ab1_e0a6),
    ((8, 1, 2), 0x019f_b6eb_18d6_cf3e),
    ((8, 1, 5), 0x238d_191a_53c7_83fe),
    ((8, 2, 1), 0xa6df_a756_2d40_1e7a),
    ((8, 2, 2), 0x61e1_f59c_8313_c58d),
    ((8, 2, 5), 0x1638_6e0f_8e32_1158),
    ((8, 16, 1), 0xed81_6c0a_cb76_83fa),
    ((8, 16, 2), 0xf3cb_50ae_a386_99e8),
    ((8, 16, 5), 0xec6e_234c_5415_9902),
    ((48, 128, 6), 0xf9e9_60db_376a_5c28),
];

#[test]
fn stencil_matches_recorded_digests() {
    check(
        &STENCIL,
        |(rows, width, steps)| stencil::stencil(rows, width, steps),
        |(rows, width, steps)| {
            Some(ShapeSpec::Stencil {
                rows: rows as u32,
                width: width as u32,
                steps: steps as u32,
            })
        },
    );
}

/// `(stages, items, window, work)`: the differential grid plus the
/// `Scale::Full` table shape.
const PIPELINE: [((usize, usize, usize, usize), u64); 37] = [
    ((1, 1, 1, 1), 0x7f1f_2a09_7a55_cf64),
    ((1, 1, 1, 3), 0xcf93_ad59_7320_e6eb),
    ((1, 4, 1, 1), 0x5a81_56a9_72a5_2351),
    ((1, 4, 1, 3), 0xf0cd_8a02_f94b_a119),
    ((1, 5, 2, 1), 0xfa2c_45f8_a379_87a8),
    ((1, 5, 2, 3), 0x68bd_2cfa_0565_ada3),
    ((1, 8, 4, 1), 0x45a3_da2a_d3fc_e6c7),
    ((1, 8, 4, 3), 0xa971_3ad6_fcce_e617),
    ((1, 7, 7, 1), 0xd0a8_3fa7_5904_c6f5),
    ((1, 7, 7, 3), 0x0b47_6b7a_5933_f8e6),
    ((1, 16, 5, 1), 0x22dd_9879_2359_29f2),
    ((1, 16, 5, 3), 0x9c19_48f6_6b37_b8bd),
    ((2, 1, 1, 1), 0x92b5_5c1d_6ee4_ba5d),
    ((2, 1, 1, 3), 0x164a_190c_298b_8e21),
    ((2, 4, 1, 1), 0xb65f_b9fd_3e4e_330d),
    ((2, 4, 1, 3), 0x3ead_fd26_edcf_9332),
    ((2, 5, 2, 1), 0xe24a_dff9_aead_1744),
    ((2, 5, 2, 3), 0xe426_606f_a4d0_482b),
    ((2, 8, 4, 1), 0xc973_7740_b7e1_ae24),
    ((2, 8, 4, 3), 0x2c09_298f_754e_a99f),
    ((2, 7, 7, 1), 0xb81e_b52b_66e3_c7ee),
    ((2, 7, 7, 3), 0x9f76_66c2_de09_e359),
    ((2, 16, 5, 1), 0xba3b_ae5a_5210_cc78),
    ((2, 16, 5, 3), 0x8b69_8bd4_6dec_0200),
    ((4, 1, 1, 1), 0x6d69_f20a_a439_7aa6),
    ((4, 1, 1, 3), 0xc62c_4552_6014_0d46),
    ((4, 4, 1, 1), 0x1e0c_6662_4b90_2601),
    ((4, 4, 1, 3), 0x8994_e190_c3d1_1ca2),
    ((4, 5, 2, 1), 0x8c6c_2431_6f53_27ed),
    ((4, 5, 2, 3), 0x47c1_8321_2e76_c4d7),
    ((4, 8, 4, 1), 0x00c5_2db4_f2b1_3d19),
    ((4, 8, 4, 3), 0xe723_eddd_2941_e890),
    ((4, 7, 7, 1), 0x5639_45a4_f651_07e2),
    ((4, 7, 7, 3), 0x3851_579c_c276_0b84),
    ((4, 16, 5, 1), 0x595a_c083_713a_13ef),
    ((4, 16, 5, 3), 0xa825_662b_e6ea_8cae),
    ((8, 512, 4, 3), 0x5880_c668_6d48_a32c),
];

#[test]
fn batched_pipeline_matches_recorded_digests() {
    check(
        &PIPELINE,
        |(stages, items, window, work)| backpressure::batched_pipeline(stages, items, window, work),
        |(stages, items, window, work)| {
            Some(ShapeSpec::Pipeline {
                stages: stages as u32,
                items: items as u32,
                window: window as u32,
                work: work as u32,
            })
        },
    );
}
