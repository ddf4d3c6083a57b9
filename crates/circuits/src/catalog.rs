//! Named benchmark suites mirroring Table III of the ALSRAC paper.
//!
//! The original benchmark *files* (ISCAS'85, MCNC, EPFL) are artifacts we do
//! not ship; each entry here generates a circuit of the same family. Where
//! the original is an irregular netlist with no closed-form spec (the ISCAS
//! `c*` circuits, EPFL `cavlc`/`i2c`/`mem ctrl`), the analogue is either a
//! structured circuit of the same class (ALUs, parity/ECC networks,
//! comparator datapaths) or a seeded random network of comparable size —
//! see [`crate::random_logic`]. DESIGN.md records every substitution.
//!
//! Every suite is available at two scales: [`Scale::Test`] keeps circuits
//! small enough for exhaustive checking in unit tests, [`Scale::Paper`]
//! approaches the sizes of Table III for the experiment harness.

use alsrac_aig::Aig;

use crate::{arith, control, random_logic, words};

/// Generation scale for the benchmark suites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small instances (exhaustively checkable; fast tests).
    Test,
    /// Instances approaching the paper's Table III sizes.
    Paper,
}

/// A generated benchmark with its provenance.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// The paper's benchmark name this entry stands in for.
    pub paper_name: &'static str,
    /// The generated circuit.
    pub aig: Aig,
}

impl Benchmark {
    fn new(paper_name: &'static str, aig: Aig) -> Benchmark {
        Benchmark { paper_name, aig }
    }
}

/// `c1908`-style analogue: a Hamming-like parity/ECC network. `n` data
/// bits produce check bits over seeded overlapping groups plus a corrected
/// data word.
pub fn ecc_network(n: usize, seed: u64) -> Aig {
    let mut rng = alsrac_rt::Rng::from_seed(seed);
    let mut aig = Aig::new(format!("ecc{n}"));
    let data = aig.add_inputs("d", n);
    let groups = (usize::BITS as usize - n.leading_zeros() as usize) + 1;
    let mut checks = Vec::with_capacity(groups);
    for g in 0..groups {
        let members: Vec<_> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| i >> g & 1 == 1 || rng.gen_bool(0.25))
            .map(|(_, &l)| l)
            .collect();
        let parity = aig.xor_all(&members);
        checks.push(parity);
        aig.add_output(format!("c{g}"), parity);
    }
    // A syndrome-driven "corrected" bit per data position: data XOR (all
    // checks agree on this position), giving reconvergent parity logic.
    for (i, &d) in data.iter().enumerate() {
        let involved: Vec<_> = (0..groups)
            .filter(|&g| i >> g & 1 == 1)
            .map(|g| checks[g])
            .collect();
        let syndrome = aig.and_all(&involved);
        let corrected = aig.xor(d, syndrome);
        aig.add_output(format!("o{i}"), corrected);
    }
    aig
}

/// `c2670`/`c7552`-style analogue: adder + comparator + parity datapath.
pub fn adder_comparator(n: usize) -> Aig {
    let mut aig = Aig::new(format!("addcmp{n}"));
    let a = aig.add_inputs("a", n);
    let b = aig.add_inputs("b", n);
    let (sum, carry) = words::ripple_add(&mut aig, &a, &b, alsrac_aig::Lit::FALSE);
    let lt = words::less_than(&mut aig, &a, &b);
    let eq = words::equal(&mut aig, &a, &b);
    let parity = aig.xor_all(&sum);
    for (i, &s) in sum.iter().enumerate() {
        aig.add_output(format!("s{i}"), s);
    }
    aig.add_output("cout", carry);
    aig.add_output("lt", lt);
    aig.add_output("eq", eq);
    aig.add_output("par", parity);
    aig
}

/// The ISCAS + arithmetic suite of Table IV (ASIC / ER experiments).
pub fn iscas_and_arith(scale: Scale) -> Vec<Benchmark> {
    match scale {
        Scale::Test => vec![
            Benchmark::new("alu4", arith::alu(3)),
            Benchmark::new("c880", arith::alu(4)),
            Benchmark::new("c1908", ecc_network(8, 19)),
            Benchmark::new("c2670", adder_comparator(6)),
            Benchmark::new("cla32", arith::carry_lookahead_adder(6)),
            Benchmark::new("ksa32", arith::kogge_stone_adder(6)),
            Benchmark::new("mtp8", arith::array_multiplier(4)),
            Benchmark::new("rca32", arith::ripple_carry_adder(6)),
            Benchmark::new("wal8", arith::wallace_multiplier(4)),
        ],
        Scale::Paper => vec![
            Benchmark::new("alu4", arith::alu(8)),
            Benchmark::new("c880", arith::alu(12)),
            Benchmark::new("c1908", ecc_network(24, 19)),
            Benchmark::new("c2670", adder_comparator(20)),
            Benchmark::new("c3540", arith::alu(16)),
            Benchmark::new("c5315", adder_comparator(40)),
            Benchmark::new("c7552", adder_comparator(56)),
            Benchmark::new("cla32", arith::carry_lookahead_adder(32)),
            Benchmark::new("ksa32", arith::kogge_stone_adder(32)),
            Benchmark::new("mtp8", arith::array_multiplier(8)),
            Benchmark::new("rca32", arith::ripple_carry_adder(32)),
            Benchmark::new("wal8", arith::wallace_multiplier(8)),
        ],
    }
}

/// The arithmetic subset of Table V (ASIC / NMED experiments).
pub fn arithmetic_subset(scale: Scale) -> Vec<Benchmark> {
    iscas_and_arith(scale)
        .into_iter()
        .filter(|b| matches!(b.paper_name, "cla32" | "ksa32" | "mtp8" | "rca32" | "wal8"))
        .collect()
}

/// The EPFL random/control suite of Table VI (FPGA / ER experiments).
pub fn epfl_control(scale: Scale) -> Vec<Benchmark> {
    match scale {
        Scale::Test => vec![
            Benchmark::new("arbiter", control::arbiter(6)),
            Benchmark::new("cavlc", random_logic::control_like("cavlc", 8, 90, 11)),
            Benchmark::new(
                "alu ctrl",
                random_logic::control_like("alu_ctrl", 7, 30, 12),
            ),
            Benchmark::new("decoder", control::decoder(4)),
            Benchmark::new("int2float", control::int_to_float(8, 4, 3)),
            Benchmark::new("priority", control::priority_encoder(10)),
            Benchmark::new("router", control::crossbar_router(2, 3)),
            Benchmark::new("voter", control::voter(9)),
        ],
        Scale::Paper => vec![
            Benchmark::new("arbiter", control::arbiter(32)),
            Benchmark::new("cavlc", random_logic::control_like("cavlc", 10, 280, 11)),
            Benchmark::new(
                "alu ctrl",
                random_logic::control_like("alu_ctrl", 7, 80, 12),
            ),
            Benchmark::new("decoder", control::decoder(7)),
            Benchmark::new("i2c ctrl", random_logic::control_like("i2c", 18, 600, 13)),
            Benchmark::new("int2float", control::int_to_float(11, 5, 4)),
            Benchmark::new(
                "mem ctrl",
                random_logic::control_like("mem_ctrl", 30, 2400, 14),
            ),
            Benchmark::new("priority", control::priority_encoder(64)),
            Benchmark::new("router", control::crossbar_router(4, 4)),
            Benchmark::new("voter", control::voter(31)),
        ],
    }
}

/// The EPFL arithmetic suite of Table VII (FPGA / MRED experiments).
///
/// `hyp` is omitted at both scales, as in the paper ("ALSRAC cannot
/// synthesize it within 24 hours").
pub fn epfl_arith(scale: Scale) -> Vec<Benchmark> {
    match scale {
        Scale::Test => vec![
            Benchmark::new("adder", arith::ripple_carry_adder(6)),
            Benchmark::new("shifter", arith::barrel_shifter(8)),
            Benchmark::new("divisor", arith::divider(5)),
            Benchmark::new("log2", arith::log2(8, 4)),
            Benchmark::new("max", arith::max_of(3, 4)),
            Benchmark::new("mult", arith::wallace_multiplier(4)),
            Benchmark::new("sine", arith::sine(6)),
            Benchmark::new("sqrt", arith::sqrt(8)),
            Benchmark::new("square", arith::square(5)),
        ],
        Scale::Paper => vec![
            Benchmark::new("adder", arith::ripple_carry_adder(32)),
            Benchmark::new("shifter", arith::barrel_shifter(32)),
            Benchmark::new("divisor", arith::divider(12)),
            Benchmark::new("log2", arith::log2(16, 8)),
            Benchmark::new("max", arith::max_of(4, 16)),
            Benchmark::new("mult", arith::wallace_multiplier(10)),
            Benchmark::new("sine", arith::sine(12)),
            Benchmark::new("sqrt", arith::sqrt(16)),
            Benchmark::new("square", arith::square(12)),
        ],
    }
}

/// Large generated circuits for the windowed-resubstitution scale
/// experiments (`bench_window` / BENCH_scale.json): scaled array
/// multipliers and EPFL-style arithmetic datapaths in the 10k–100k AND
/// range. These are not part of the paper's tables — whole-circuit
/// resubstitution does not finish on them, which is the point.
pub fn scale_benchmarks() -> Vec<Benchmark> {
    SCALE_NAMES
        .iter()
        .map(|&name| Benchmark::new(name, scale_circuit(name).expect("listed scale circuit")))
        .collect()
}

/// Names of the [`scale_benchmarks`] circuits, in suite order.
const SCALE_NAMES: [&str; 4] = ["wal32", "mtp48", "mac16x8", "mac24x16"];

/// Generates one [`scale_benchmarks`] circuit by name.
fn scale_circuit(name: &str) -> Option<Aig> {
    Some(match name {
        "wal32" => arith::wallace_multiplier(32),
        "mtp48" => arith::array_multiplier(48),
        "mac16x8" => arith::multiply_accumulate(16, 8),
        "mac24x16" => arith::multiply_accumulate(24, 16),
        _ => return None,
    })
}

/// Looks up a single benchmark by its paper name across all suites at
/// `scale`, then among the [`scale_benchmarks`] (which have one size at
/// both scales). The one named-circuit lookup of the CLI and the daemon.
pub fn by_name(paper_name: &str, scale: Scale) -> Option<Aig> {
    iscas_and_arith(scale)
        .into_iter()
        .chain(epfl_control(scale))
        .chain(epfl_arith(scale))
        .find(|b| b.paper_name == paper_name)
        .map(|b| b.aig)
        .or_else(|| scale_circuit(paper_name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suites_generate_valid_circuits() {
        for scale in [Scale::Test, Scale::Paper] {
            for bench in iscas_and_arith(scale)
                .into_iter()
                .chain(epfl_control(scale))
                .chain(epfl_arith(scale))
            {
                assert!(bench.aig.num_inputs() > 0, "{}", bench.paper_name);
                assert!(bench.aig.num_outputs() > 0, "{}", bench.paper_name);
                assert!(bench.aig.num_ands() > 0, "{}", bench.paper_name);
                // The reference evaluator must run without panicking.
                let zeros = vec![false; bench.aig.num_inputs()];
                let _ = bench.aig.evaluate(&zeros);
            }
        }
    }

    #[test]
    fn paper_scale_is_larger_than_test_scale() {
        let small: usize = iscas_and_arith(Scale::Test)
            .iter()
            .map(|b| b.aig.num_ands())
            .sum();
        let large: usize = iscas_and_arith(Scale::Paper)
            .iter()
            .map(|b| b.aig.num_ands())
            .sum();
        assert!(large > 2 * small);
    }

    #[test]
    fn scale_suite_reaches_window_scale() {
        let suite = scale_benchmarks();
        assert!(!suite.is_empty());
        for bench in &suite {
            assert!(
                bench.aig.num_ands() >= 10_000,
                "{} has only {} ANDs",
                bench.paper_name,
                bench.aig.num_ands()
            );
            assert!(
                bench.aig.num_ands() <= 150_000,
                "{} too large: {} ANDs",
                bench.paper_name,
                bench.aig.num_ands()
            );
            // The reference evaluator must run without panicking.
            let zeros = vec![false; bench.aig.num_inputs()];
            let out = bench.aig.evaluate(&zeros);
            assert!(out.iter().all(|&v| !v), "zero inputs give zero outputs");
        }
    }

    #[test]
    fn by_name_finds_benchmarks() {
        assert!(by_name("rca32", Scale::Test).is_some());
        assert!(by_name("voter", Scale::Paper).is_some());
        assert!(by_name("hyp", Scale::Paper).is_none());
        for scale in [Scale::Test, Scale::Paper] {
            let wal32 = by_name("wal32", scale).expect("scale circuits resolve by name");
            assert_eq!(wal32.num_inputs(), 64);
        }
    }

    #[test]
    fn arithmetic_subset_matches_table_v() {
        let names: Vec<_> = arithmetic_subset(Scale::Test)
            .iter()
            .map(|b| b.paper_name)
            .collect();
        assert_eq!(names, vec!["cla32", "ksa32", "mtp8", "rca32", "wal8"]);
    }

    #[test]
    fn ecc_network_has_reconvergence() {
        let aig = ecc_network(8, 19);
        assert!(aig.num_ands() > 30);
        assert_eq!(aig.num_inputs(), 8);
    }

    #[test]
    fn adder_comparator_flags_are_consistent() {
        let aig = adder_comparator(4);
        // a = 3, b = 5: lt = 1, eq = 0, sum = 8.
        let mut bits = vec![false; 8];
        bits[0] = true;
        bits[1] = true; // a = 3
        bits[4] = true;
        bits[6] = true; // b = 5
        let out = aig.evaluate(&bits);
        let sum: u64 = (0..4).map(|i| (out[i] as u64) << i).sum();
        let cout = out[4];
        let lt = out[5];
        let eq = out[6];
        assert_eq!(sum | (cout as u64) << 4, 8);
        assert!(lt);
        assert!(!eq);
    }
}
