//! Bit-identity of WCE-constrained flows.
//!
//! Every candidate of a WCE flow passes an accept gate that proves its
//! maximum error distance within the bound. How the gate reaches its
//! answer (a SAT query, or a cheaper refutation) may change for speed;
//! under unlimited SAT budgets no decision may. The final circuit, the
//! accept history and the full certificate — its SAT query count
//! included — must hash to the digests recorded from the one-miter-per-
//! candidate gate. A property test pins the banked gate's decisions to
//! a fresh one-query gate's on seeded candidates.

use alsrac::certify::{WceAcceptGate, WceGate};
use alsrac::flow::{run, FlowConfig, FlowResult};
use alsrac_aig::{Aig, Lit};
use alsrac_circuits::aiger;
use alsrac_circuits::catalog::{by_name, Scale};
use alsrac_metrics::{CertStatus, ErrorMetric};
use alsrac_rt::budget::Budget;
use alsrac_rt::Rng;
use alsrac_sat::miter::Miter;
use alsrac_sat::SatResult;

/// FNV-1a 64: a digest that does not depend on the standard library's
/// hasher, whose output may change between releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

fn digest(result: &FlowResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&aiger::write_binary(&result.approx));
    h.u64(result.iterations as u64);
    h.u64(result.applied as u64);
    h.u64(result.history.len() as u64);
    for rec in &result.history {
        h.u64(rec.estimated_error.to_bits());
        h.u64(rec.ands as u64);
        h.u64(rec.rounds as u64);
    }
    let cert = result.certificate.as_ref().expect("WCE flows certify");
    h.u64(cert.value.to_bits());
    h.u64(cert.exact as u64);
    h.u64(cert.epsilon.to_bits());
    h.u64(cert.delta.to_bits());
    h.u64(cert.sat_queries);
    match &cert.status {
        CertStatus::Certified => h.u64(0),
        CertStatus::Degraded { reason } => {
            h.u64(1);
            h.bytes(reason.as_bytes());
        }
    }
    h.0
}

fn paper(name: &str) -> Aig {
    by_name(name, Scale::Paper).expect("catalog circuit")
}

fn wce_config(bound: f64, seed: u64, max_iterations: usize) -> FlowConfig {
    FlowConfig {
        metric: ErrorMetric::Wce,
        threshold: bound,
        seed,
        max_iterations,
        ..FlowConfig::default()
    }
}

/// `(circuit, bound, seed, iteration cap, digest)`.
const GOLDEN: [(&str, f64, u64, usize, u64); 4] = [
    ("rca32", 64.0, 1, 6, 0x73a0_ba03_a1a5_b5d0),
    ("cla32", 64.0, 2, 6, 0xe078_8e37_e57e_dbbc),
    ("max", 64.0, 3, 6, 0x3250_d5cf_c22a_38b0),
    ("c2670", 16.0, 4, 6, 0x1f9f_044d_80ce_535a),
];

/// Runs the `GOLDEN` case for `name` and compares its digest.
fn check(name: &str) {
    let &(_, bound, seed, cap, want) = GOLDEN
        .iter()
        .find(|case| case.0 == name)
        .expect("golden case");
    let result = run(&paper(name), &wce_config(bound, seed, cap)).expect("WCE flow");
    let got = digest(&result);
    assert_eq!(got, want, "{name}: got {got:#018x}, want {want:#018x}");
}

#[test]
fn rca32_wce_flow_matches_its_digest() {
    check("rca32");
}

#[test]
fn cla32_wce_flow_matches_its_digest() {
    check("cla32");
}

#[test]
fn max_wce_flow_matches_its_digest() {
    check("max");
}

#[test]
fn c2670_wce_flow_matches_its_digest() {
    check("c2670");
}

/// Flips output `position` of `aig` on the input cube `cube`
/// (`(input, polarity)` pairs), moving the output value by `2^position`
/// there.
fn flip_on_cube(aig: &mut Aig, position: usize, cube: &[(usize, bool)]) {
    let lits: Vec<Lit> = cube
        .iter()
        .map(|&(i, negated)| aig.inputs()[i].lit().complement_if(negated))
        .collect();
    let gate = aig.and_all(&lits);
    let flipped = aig.xor(aig.output_lits()[position], gate);
    aig.set_output_lit(position, flipped);
}

/// The banked gate decides every candidate exactly as a stateless
/// one-query gate does. Candidates flip one or two outputs on cubes drawn
/// from a small pool, so later candidates often share an input region
/// with an earlier counterexample and the bank gets to refute them.
#[test]
fn banked_gate_decides_like_a_fresh_sat_query() {
    let original = alsrac_circuits::arith::ripple_carry_adder(16);
    let bound = 64;
    let mut rng = Rng::from_seed(0x6a7e);
    let pool: Vec<Vec<(usize, bool)>> = (0..6)
        .map(|_| {
            (0..rng.gen_range(2..6))
                .map(|_| (rng.gen_range(0..original.num_inputs()), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    let mut gate = WceAcceptGate::new(&original, bound);
    let (mut exceeds, mut bank_rejects) = (0, 0);
    for candidate_index in 0..60 {
        let mut candidate = original.clone();
        for _ in 0..rng.gen_range(1..3) {
            let position = rng.gen_range(0..original.num_outputs());
            let cube = &pool[rng.gen_range(0..pool.len())];
            flip_on_cube(&mut candidate, position, cube);
        }
        let fresh = match Miter::new(&original, &candidate).distance_exceeds(bound) {
            SatResult::Sat => WceGate::Exceeds,
            SatResult::Unsat => WceGate::Within,
            SatResult::Unknown => unreachable!("unbudgeted query"),
        };
        let banked = gate.witnesses().len();
        let decision = gate.check(&candidate, &Budget::unlimited());
        assert_eq!(decision, fresh, "candidate {candidate_index}");
        if decision == WceGate::Exceeds {
            exceeds += 1;
            bank_rejects += usize::from(gate.witnesses().len() == banked);
        }
    }
    assert!(
        exceeds > 0 && exceeds < 60,
        "{exceeds} of 60 exceed: one-sided"
    );
    assert!(bank_rejects > 0, "the bank refuted no candidate");
}
