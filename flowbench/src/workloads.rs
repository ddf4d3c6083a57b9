//! The four named workloads and their set-up: circuit generation plus the
//! AIGER write/parse round trip every `--input` user goes through.

use std::time::Instant;

use alsrac::flow::FlowConfig;
use alsrac_aig::Aig;
use alsrac_circuits::catalog::{self, Scale};
use alsrac_circuits::{aiger, arith, control};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::Rng;

/// One circuit × constraint of a workload, run once per seed.
struct Case {
    circuit: &'static str,
    metric: ErrorMetric,
    threshold: f64,
    max_iterations: usize,
    seeds: usize,
}

const fn er(circuit: &'static str, max_iterations: usize, seeds: usize) -> Case {
    Case {
        circuit,
        metric: ErrorMetric::ErrorRate,
        threshold: 0.01,
        max_iterations,
        seeds,
    }
}

const fn wce(circuit: &'static str, bound: f64, max_iterations: usize) -> Case {
    Case {
        circuit,
        metric: ErrorMetric::Wce,
        threshold: bound,
        max_iterations,
        seeds: 1,
    }
}

/// A named workload and the cases it runs. Why each workload exists is
/// recorded in `BENCHMARK.json`.
pub struct Workload {
    pub name: &'static str,
    cases: &'static [Case],
}

/// Iteration cap of `paper_accept`. c2670, ksa32 and wal8 converge
/// below it on most seeds; the zero-gain churn of alu4, c880 and mtp8
/// never does, so the cap also sets the workload's length.
const ACCEPT_CAP: usize = 100;

/// Cap on cases that end by themselves well before it.
const NATURAL_CAP: usize = 1_000;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_accept",
        cases: &[
            er("alu4", ACCEPT_CAP, 1),
            er("c880", ACCEPT_CAP, 1),
            er("c2670", ACCEPT_CAP, 1),
            er("ksa32", ACCEPT_CAP, 1),
            er("mtp8", ACCEPT_CAP, 1),
            er("wal8", ACCEPT_CAP, 1),
        ],
    },
    // cla32, c1908, shifter and decoder also reject most iterations at ER
    // 0.01, but accept LACs on some seeds (c1908 then churns for up to
    // 23 s), which runs synth and changes the circuit; rca32 and router
    // never accept.
    // More rca32 flows than router flows keep flow_s.p50 among the rca32
    // flows instead of between a 0.07 s router flow and a 0.65 s rca32 one.
    Workload {
        name: "paper_reject",
        cases: &[er("rca32", NATURAL_CAP, 8), er("router", NATURAL_CAP, 4)],
    },
    Workload {
        name: "scale_wal32",
        cases: &[er("wal32", 2, 1)],
    },
    // ksa32 is left out: one gated iteration plus its final certificate
    // took 4.9-6.9 s by seed, which would halve the repeats per run.
    Workload {
        name: "wce_gate",
        cases: &[
            wce("rca32", 64.0, NATURAL_CAP),
            wce("cla32", 64.0, NATURAL_CAP),
            wce("max", 64.0, 20),
            wce("c2670", 16.0, NATURAL_CAP),
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One flow of a workload run: the circuit as parsed back from AIGER, and
/// the configuration the flow receives. `check_seed` drives the
/// benchmark's own output check, never the flow.
pub struct Flow {
    pub label: String,
    pub original: Aig,
    pub config: FlowConfig,
    pub check_seed: u64,
}

/// Set-up timings of one [`setup`] call.
pub struct SetupTimes {
    pub generate_s: f64,
    pub roundtrip_s: f64,
}

/// The circuit a case names, from the generator `catalog` uses for it at
/// `Scale::Paper` (`scale_benchmarks()` for wal32). Calling the generator
/// itself builds only the workload's circuits, not the whole suite.
fn generate(circuit: &str) -> Aig {
    match circuit {
        "alu4" => arith::alu(8),
        "c880" => arith::alu(12),
        "c2670" => catalog::adder_comparator(20),
        "cla32" => arith::carry_lookahead_adder(32),
        "ksa32" => arith::kogge_stone_adder(32),
        "max" => arith::max_of(4, 16),
        "mtp8" => arith::array_multiplier(8),
        "rca32" => arith::ripple_carry_adder(32),
        "router" => control::crossbar_router(4, 4),
        "wal8" => arith::wallace_multiplier(8),
        "wal32" => arith::wallace_multiplier(32),
        _ => unreachable!("no generator for workload circuit {circuit}"),
    }
}

/// Errors unless each of the workload's circuits is the one the catalog
/// lists under its name.
pub fn check_catalog(workload: &Workload) -> Result<(), String> {
    for case in workload.cases {
        let listed = match case.circuit {
            "wal32" => catalog::scale_benchmarks()
                .into_iter()
                .find(|b| b.paper_name == case.circuit)
                .map(|b| b.aig),
            name => catalog::by_name(name, Scale::Paper),
        };
        if listed.map(|aig| aiger::write_binary(&aig))
            != Some(aiger::write_binary(&generate(case.circuit)))
        {
            return Err(format!("{} differs from the catalog's", case.circuit));
        }
    }
    Ok(())
}

/// Writes `aig` as binary AIGER and parses it back, as the CLI's `--input`
/// does. Errors unless the parsed circuit re-serializes to the same bytes.
fn roundtrip(aig: &Aig) -> Result<Aig, String> {
    let bytes = aiger::write_binary(aig);
    let parsed = aiger::parse_binary(&bytes).map_err(|e| format!("{}: {e}", aig.name()))?;
    if aiger::write_binary(&parsed) != bytes || parsed.num_ands() != aig.num_ands() {
        return Err(format!(
            "{}: AIGER round trip changed the circuit",
            aig.name()
        ));
    }
    Ok(parsed)
}

/// Generates the workload's circuits and round-trips them through AIGER,
/// then derives every flow's seeds from `seed`.
pub fn setup(workload: &Workload, seed: u64) -> Result<(Vec<Flow>, SetupTimes), String> {
    let start = Instant::now();
    let generated: Vec<Aig> = workload.cases.iter().map(|c| generate(c.circuit)).collect();
    let generate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parsed = generated
        .iter()
        .map(roundtrip)
        .collect::<Result<Vec<Aig>, String>>()?;
    let roundtrip_s = start.elapsed().as_secs_f64();

    let mut rng = Rng::from_seed(seed);
    let mut flows = Vec::new();
    for (case, original) in workload.cases.iter().zip(parsed) {
        for s in 0..case.seeds {
            let config = FlowConfig {
                metric: case.metric,
                threshold: case.threshold,
                max_iterations: case.max_iterations,
                seed: rng.next_u64(),
                ..FlowConfig::default()
            };
            flows.push(Flow {
                label: format!("{}#{s}", case.circuit),
                original: original.clone(),
                config,
                check_seed: rng.next_u64(),
            });
        }
    }
    Ok((
        flows,
        SetupTimes {
            generate_s,
            roundtrip_s,
        },
    ))
}
