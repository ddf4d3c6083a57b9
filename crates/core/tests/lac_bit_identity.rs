//! Bit-identity of LAC generation.
//!
//! `generate_lacs_with` keeps scratch buffers across pivots, streams its
//! divisor sets and checks feasibility a 64-pattern word at a time. None
//! of that may change a result: the candidate list (nodes, divisors,
//! covers, `est_cost`, `est_saved`, in order) must hash to the digests
//! recorded from the straightforward per-pattern implementation.

use alsrac::divisors::DivisorConfig;
use alsrac::lac::{generate_lacs_with, Lac, LacConfig};
use alsrac::window::WindowConfig;
use alsrac_aig::Aig;
use alsrac_circuits::catalog::{by_name, Scale};
use alsrac_sim::{PatternBuffer, Simulation};

/// FNV-1a 64: a digest that does not depend on the standard library's
/// hasher, whose output may change between releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_lacs(h: &mut Fnv, lacs: &[Lac]) {
    h.u64(lacs.len() as u64);
    for lac in lacs {
        h.u64(lac.node.raw() as u64);
        h.u64(lac.divisors.len() as u64);
        for d in &lac.divisors {
            h.u64(d.raw() as u64);
        }
        h.u64(lac.cover.num_cubes() as u64);
        for cube in lac.cover.cubes() {
            h.u64(cube.pos as u64);
            h.u64(cube.neg as u64);
        }
        h.u64(lac.est_cost as u64);
        h.u64(lac.est_saved as u64);
    }
}

fn paper(name: &str) -> Aig {
    by_name(name, Scale::Paper).expect("catalog circuit")
}

/// Pattern counts: two partial single words, two words with a masked
/// tail, two full words.
const PATTERN_COUNTS: [usize; 4] = [8, 32, 100, 128];

/// Digest of the LAC lists over every pattern count in [`PATTERN_COUNTS`].
fn digest(aig: &Aig, lac: &LacConfig, window: &WindowConfig) -> u64 {
    let fanouts = aig.fanout_map();
    let mut h = Fnv::new();
    for (i, &n) in PATTERN_COUNTS.iter().enumerate() {
        let patterns = PatternBuffer::random(aig.num_inputs(), n, 0x5eed + i as u64);
        let sim = Simulation::new(aig, &patterns);
        hash_lacs(
            &mut h,
            &generate_lacs_with(aig, &sim, &patterns, &fanouts, lac, window),
        );
    }
    h.0
}

fn bounded() -> WindowConfig {
    // Smaller than `max_sets - 1`: the pool runs out before the cap.
    WindowConfig {
        max_tfi: 4,
        ..WindowConfig::default()
    }
}

fn check(cases: Vec<(String, u64, u64)>) {
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(label, got, want)| {
            (got != want).then(|| format!("{label}: got {got:#018x}, want {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// `(circuit, [default window, disabled, max_tfi 4])` at the default
/// `LacConfig`.
const WINDOW_GOLDEN: [(&str, [u64; 3]); 6] = [
    (
        "mtp8",
        [
            0xd445_6317_817f_f799,
            0xd445_6317_817f_f799,
            0x2643_88af_252e_3c98,
        ],
    ),
    (
        "wal8",
        [
            0x6bcb_a14a_485b_cafc,
            0x6bcb_a14a_485b_cafc,
            0x2d4e_87a1_55df_853e,
        ],
    ),
    (
        "c880",
        [
            0x34b9_ec86_3353_28be,
            0x34b9_ec86_3353_28be,
            0xa025_3888_5888_35fd,
        ],
    ),
    (
        "ksa32",
        [
            0xc1dc_3a1a_704a_e1ce,
            0xc1dc_3a1a_704a_e1ce,
            0x5d53_7168_7764_de46,
        ],
    ),
    (
        "rca32",
        [
            0x7e44_ff0e_5d39_95ea,
            0x7e44_ff0e_5d39_95ea,
            0x3ac1_70b3_5d56_7eb7,
        ],
    ),
    (
        "router",
        [
            0x0a9e_56f6_0fe3_eaa2,
            0x0a9e_56f6_0fe3_eaa2,
            0xfb92_0f7c_b0d3_8f6e,
        ],
    ),
];

#[test]
fn lac_lists_match_golden_digests_per_window_setting() {
    let mut cases = Vec::new();
    for (name, want) in WINDOW_GOLDEN {
        let aig = paper(name);
        let windows = [WindowConfig::default(), WindowConfig::disabled(), bounded()];
        for ((label, window), want) in ["default", "disabled", "max_tfi4"]
            .into_iter()
            .zip(&windows)
            .zip(want)
        {
            let got = digest(&aig, &LacConfig::default(), window);
            cases.push((format!("{name}/{label}"), got, want));
        }
    }
    check(cases);
}

/// `(circuit, [max_sets 64, 1, 2, extensions, extensions at max_tfi 4])`,
/// all at `lac_limit` 4.
const LIMIT_GOLDEN: [(&str, [u64; 5]); 3] = [
    (
        "c880",
        [
            0x8f37_16f1_269e_8757,
            0xc7be_34e3_ae60_f33e,
            0x2228_8fd6_4e5e_ec59,
            0xa04e_54c5_dd76_1b75,
            0xdec7_f2d0_12b0_de93,
        ],
    ),
    (
        "ksa32",
        [
            0x87bb_614b_9cd7_25ae,
            0xf58d_9ae3_d2f4_3bcf,
            0xbd43_a5f0_74a1_8ef6,
            0x9842_9a39_a843_b63a,
            0x4b18_5316_1cd8_3f4c,
        ],
    ),
    (
        "router",
        [
            0x26ce_db22_0410_3859,
            0x9277_38b4_893f_ac25,
            0x9f44_d2cd_af8b_2ce5,
            0x1924_69a3_d37b_2471,
            0xb4c0_21c0_f310_9f84,
        ],
    ),
];

#[test]
fn lac_lists_match_golden_digests_per_limit() {
    let configs = [
        ("lac_limit4", 64, false, WindowConfig::default()),
        ("max_sets1", 1, false, WindowConfig::default()),
        ("max_sets2", 2, false, WindowConfig::default()),
        ("extensions", 64, true, WindowConfig::default()),
        ("extensions_max_tfi4", 64, true, bounded()),
    ];
    let mut cases = Vec::new();
    for (name, want) in LIMIT_GOLDEN {
        let aig = paper(name);
        for ((label, max_sets, include_extensions, window), want) in configs.iter().zip(want) {
            let lac = LacConfig {
                lac_limit: 4,
                divisors: DivisorConfig {
                    max_sets: *max_sets,
                    include_extensions: *include_extensions,
                },
            };
            let got = digest(&aig, &lac, window);
            cases.push((format!("{name}/{label}"), got, want));
        }
    }
    check(cases);
}
