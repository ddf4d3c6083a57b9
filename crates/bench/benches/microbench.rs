//! Micro-benchmarks for the performance-critical kernels: bit-parallel
//! simulation, ISOP computation, cut enumeration, care-set harvesting,
//! flip-influence / batch error estimation, the traditional optimizer,
//! both technology mappers, and the WCE accept gate (a SAT proof and a
//! counterexample-bank refutation).
//!
//! Runs on the `alsrac-rt` timer: `cargo bench -p alsrac-bench` takes full
//! timed samples; any other invocation (e.g. `cargo test`, which executes
//! `harness = false` bench targets) does a one-iteration smoke run.

use std::hint::black_box;

use alsrac::care::ApproximateCareSet;
use alsrac::certify::{WceAcceptGate, WceGate};
use alsrac::estimate::Estimator;
use alsrac::lac::{generate_lacs, LacConfig};
use alsrac_aig::{Aig, Lit};
use alsrac_circuits::arith;
use alsrac_map::cell::{map_cells, Library};
use alsrac_map::lut::map_luts;
use alsrac_rt::bench::Runner;
use alsrac_rt::budget::Budget;
use alsrac_sim::{FlipInfluence, PatternBuffer, Simulation};
use alsrac_truthtable::{isop, Tt};

fn bench_simulation(runner: &mut Runner) {
    let aig = arith::array_multiplier(8);
    let patterns = PatternBuffer::random(16, 4096, 7);
    runner.bench("simulate mtp8 x 4096 patterns", || {
        black_box(Simulation::new(black_box(&aig), black_box(&patterns)));
    });
}

fn bench_isop(runner: &mut Runner) {
    let f = Tt::from_fn(8, |p| (p * 2654435761) % 7 < 3);
    runner.bench("isop 8-var pseudorandom", || {
        black_box(isop(black_box(&f), black_box(&f)));
    });
}

fn bench_cuts(runner: &mut Runner) {
    let aig = arith::wallace_multiplier(8);
    runner.bench("4-cut enumeration wal8", || {
        black_box(black_box(&aig).enumerate_cuts(4, 8));
    });
}

fn bench_care_harvest(runner: &mut Runner) {
    let aig = arith::kogge_stone_adder(16);
    let node = aig.iter_ands().last().expect("ands");
    let [f0, f1] = aig.and_fanins(node);
    let divisors = [f0.node().lit(), f1.node().lit()];
    // N=100 spans two words, the second with a masked tail.
    for (name, n) in [
        ("care harvest ksa16 (2 divisors, N=32)", 32),
        ("care harvest ksa16 (2 divisors, N=100)", 100),
    ] {
        let patterns = PatternBuffer::random(32, n, 3);
        let sim = Simulation::new(&aig, &patterns);
        runner.bench(name, || {
            black_box(ApproximateCareSet::harvest(
                black_box(&sim),
                black_box(&patterns),
                node.lit(),
                &divisors,
            ));
        });
    }
}

fn bench_influence(runner: &mut Runner) {
    let aig = arith::array_multiplier(6);
    let patterns = PatternBuffer::random(12, 2048, 9);
    let sim = Simulation::new(&aig, &patterns);
    let fanouts = aig.fanout_map();
    let node = aig.iter_ands().nth(10).expect("ands");
    runner.bench("flip influence mtp6 x 2048 patterns", || {
        black_box(FlipInfluence::compute(
            black_box(&aig),
            &sim,
            &fanouts,
            node,
        ));
    });
}

fn bench_batch_estimation(runner: &mut Runner) {
    let aig = arith::kogge_stone_adder(8);
    let care_patterns = PatternBuffer::random(16, 16, 5);
    let care_sim = Simulation::new(&aig, &care_patterns);
    let fanouts = aig.fanout_map();
    let lacs = generate_lacs(
        &aig,
        &care_sim,
        &care_patterns,
        &fanouts,
        &LacConfig::default(),
    );
    let est_patterns = PatternBuffer::random(16, 2048, 6);
    runner.bench("batch estimate all LACs ksa8", || {
        let estimator = Estimator::new(&aig, &aig, &est_patterns, &fanouts);
        black_box(estimator.estimate_all(black_box(&lacs)));
    });
}

fn bench_optimizer(runner: &mut Runner) {
    let aig = arith::carry_lookahead_adder(8);
    runner.bench("resyn2-lite cla8", || {
        black_box(alsrac_synth::optimize(black_box(&aig)));
    });
}

fn bench_mappers(runner: &mut Runner) {
    let aig = arith::wallace_multiplier(6);
    runner.bench("6-LUT map wal6", || {
        black_box(map_luts(black_box(&aig), 6));
    });
    let library = Library::mcnc();
    runner.bench("cell map wal6", || {
        black_box(map_cells(black_box(&aig), &library));
    });
}

/// `original` with output `position` flipped where the first `cube`
/// inputs are all 1: an error distance of exactly `2^position` there.
fn flipped_output(original: &Aig, position: usize, cube: usize) -> Aig {
    let mut approx = original.clone();
    let lits: Vec<Lit> = approx.inputs()[..cube].iter().map(|id| id.lit()).collect();
    let gate = approx.and_all(&lits);
    let flipped = approx.xor(approx.output_lits()[position], gate);
    approx.set_output_lit(position, flipped);
    approx
}

fn bench_wce_gate(runner: &mut Runner) {
    let original = arith::ripple_carry_adder(32);
    let budget = Budget::unlimited();
    // Distance 8 <= 64 on 2^54 inputs: the gate needs a full UNSAT proof.
    let within = flipped_output(&original, 3, 10);
    runner.bench("WCE gate UNSAT proof rca32", || {
        let mut gate = WceAcceptGate::new(&original, 64);
        assert_eq!(gate.check(black_box(&within), &budget), WceGate::Within);
    });
    // Distance 2^20 > 64: the first check banks a SAT witness, which then
    // refutes the same candidate with one simulation and no miter.
    let exceeds = flipped_output(&original, 20, 10);
    let mut gate = WceAcceptGate::new(&original, 64);
    assert_eq!(gate.check(&exceeds, &budget), WceGate::Exceeds);
    runner.bench("WCE gate bank-refuted candidate rca32", || {
        assert_eq!(gate.check(black_box(&exceeds), &budget), WceGate::Exceeds);
    });
}

fn main() {
    let mut runner = Runner::from_args();
    bench_simulation(&mut runner);
    bench_isop(&mut runner);
    bench_cuts(&mut runner);
    bench_care_harvest(&mut runner);
    bench_influence(&mut runner);
    bench_batch_estimation(&mut runner);
    bench_optimizer(&mut runner);
    bench_mappers(&mut runner);
    bench_wce_gate(&mut runner);
    runner.finish();
}
