//! Bit-identity of `optimize`.
//!
//! The passes keep per-thread state between calls (the recipe memo), and
//! their scratch buffers outlive single queries. Neither may change a
//! result: `optimize` must produce the same AIGER bytes on every circuit
//! as the allocating implementation these digests were recorded from, and
//! the same bytes on a cold thread as after warming the memo elsewhere.

use std::thread;

use alsrac_aig::Aig;
use alsrac_circuits::aiger;
use alsrac_circuits::catalog::{by_name, Scale};
use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};
use alsrac_synth::optimize;

/// FNV-1a 64: a digest that does not depend on the standard library's
/// hasher, whose output may change between releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn random(seed: u64) -> Aig {
    random_network(&RandomNetworkConfig {
        num_inputs: 16,
        num_outputs: 8,
        num_gates: 400,
        locality: 40,
        seed,
    })
}

fn paper(name: &str) -> Aig {
    by_name(name, Scale::Paper).expect("catalog circuit")
}

/// `(label, circuit, digest of aiger::write_binary(optimize(circuit)))`.
fn golden() -> Vec<(&'static str, Aig, u64)> {
    vec![
        ("mtp8", paper("mtp8"), 0x131f_d06d_8757_aa41),
        ("wal8", paper("wal8"), 0xa6f1_46cf_0207_6e24),
        ("c880", paper("c880"), 0x53db_94de_0968_7800),
        ("ksa32", paper("ksa32"), 0xe4e7_05a8_6d5b_f9a3),
        ("random1", random(1), 0x0589_56fb_c2d6_550a),
        ("random2", random(2), 0xc8fa_3512_9815_058c),
        ("random3", random(3), 0x3125_16be_3ec2_f389),
    ]
}

fn digest(aig: &Aig) -> u64 {
    fnv1a(&aiger::write_binary(&optimize(aig)))
}

#[test]
fn optimize_matches_golden_digests() {
    let mismatches: Vec<String> = golden()
        .into_iter()
        .filter_map(|(label, aig, want)| {
            let got = digest(&aig);
            (got != want).then(|| format!("{label}: got {got:#018x}, want {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn cold_thread_equals_warm_memo() {
    let target = paper("wal8");
    let cold = thread::spawn({
        let target = target.clone();
        move || aiger::write_binary(&optimize(&target))
    })
    .join()
    .expect("cold thread");
    let warm = thread::spawn(move || {
        for seed in 10..13 {
            optimize(&random(seed));
        }
        optimize(&paper("c880"));
        aiger::write_binary(&optimize(&target))
    })
    .join()
    .expect("warm thread");
    assert!(cold == warm, "optimize depends on the memo's history");
}
