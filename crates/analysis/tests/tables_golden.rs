//! Cross-commit identity of the deterministic experiment tables.
//!
//! `parallel_determinism.rs` proves every table renders the same bytes at
//! every thread count *within* one commit; this suite pins the bytes
//! *across* commits: each of E1–E9 and E11–E17 is rendered from
//! `registry()` at `Scale::Quick` on one thread and its FNV-1a digest is
//! compared with a constant recorded before the experiments were
//! restructured. Any byte change to a title, header or cell fails here. A
//! deliberate table change re-records the constant of the experiment it
//! touches (the failure message prints the new list).
//!
//! The quick shapes are too small to reach most of the capacity grid, so
//! an ignored leg pins E11–E17 at `Scale::Full` too (under a second
//! optimised):
//! `cargo test --release -p wsf-analysis --test tables_golden -- --ignored`.

use wsf_analysis::{registry, set_threads, Scale};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Digest of every rendered table of one experiment, in emission order.
const GOLDEN: [(&str, u64); 16] = [
    ("e1", 0x95d3_63e1_96fd_1d0a),
    ("e2", 0x1b3f_8361_d4bd_2721),
    ("e3", 0x8c9b_cdb2_bfbe_50fe),
    ("e4", 0x5447_ae92_4976_3998),
    ("e5", 0x9a4c_feae_43e6_5262),
    ("e6", 0xd6b4_6722_c4a8_89d7),
    ("e7", 0x5f7e_1213_8a56_1187),
    ("e8", 0x603c_b8a1_7c68_d7dd),
    ("e9", 0x36c4_e382_fd57_2d3d),
    ("e11", 0xcfd7_8fa9_4a77_5b1e),
    ("e12", 0x15dc_ecfa_baaf_bc6f),
    ("e13", 0x89f6_c1ea_ee45_3437),
    ("e14", 0x87c2_10bb_e3ec_fdf5),
    ("e15", 0x3dfe_0086_35f3_b535),
    ("e16", 0xf49b_6ca2_ad38_74d2),
    ("e17", 0x2ce9_a499_5e39_c9e3),
];

/// The same digests for the full-scale E11–E17 tables.
const GOLDEN_FULL: [(&str, u64); 7] = [
    ("e11", 0x024e_a2f6_7ec5_6184),
    ("e12", 0x9039_fb5e_509e_0f22),
    ("e13", 0xa7ff_be80_502e_1b95),
    ("e14", 0x9037_6303_a3de_1776),
    ("e15", 0xefb6_0593_f1d0_36be),
    ("e16", 0xca84_9a3c_fd78_aae5),
    ("e17", 0x57a4_1cf3_db8d_8919),
];

/// Renders each experiment of `golden` at `scale` on one thread and
/// asserts every digest matches.
fn assert_digests(golden: &[(&'static str, u64)], scale: Scale) {
    set_threads(1);
    let reg = registry();
    let measured: Vec<(&str, u64)> = golden
        .iter()
        .map(|&(id, _)| {
            let (_, _, runner) = reg
                .iter()
                .find(|(rid, _, _)| *rid == id)
                .unwrap_or_else(|| panic!("{id} missing from registry()"));
            let digest = runner(scale)
                .iter()
                .fold(FNV_OFFSET, |h, t| fnv1a(h, t.render().as_bytes()));
            (id, digest)
        })
        .collect();
    set_threads(0);
    let listing: String = measured
        .iter()
        .map(|(id, d)| format!("    (\"{id}\", {d:#018x}),\n"))
        .collect();
    assert!(
        measured == golden,
        "rendered tables differ from the recorded digests; measured:\n{listing}"
    );
}

#[test]
fn quick_tables_match_their_recorded_digests() {
    assert_digests(&GOLDEN, Scale::Quick);
}

#[test]
#[ignore = "full scale; run optimised with --ignored"]
fn full_scale_sweep_tables_match_their_recorded_digests() {
    assert_digests(&GOLDEN_FULL, Scale::Full);
}
