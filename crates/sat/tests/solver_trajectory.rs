//! Search-path identity of the CDCL kernel.
//!
//! The solver's data structures (branching order, conflict analysis
//! scratch, clause storage) may change for speed, but every query must
//! walk exactly the same search: same answer, same conflict and
//! propagation counts, same model. Conflict caps count solver events, so
//! any drift would change which capped queries degrade, and with them the
//! results of SAT-capped flows. Each case folds its per-query record into
//! an FNV-1a digest recorded from the reference implementation (a linear
//! scan for the branching variable, per-conflict scratch vectors, one
//! heap allocation per clause).

use alsrac_aig::{Aig, Lit};
use alsrac_circuits::catalog::{epfl_arith, epfl_control, iscas_and_arith, Benchmark, Scale};
use alsrac_rt::budget::Budget;
use alsrac_rt::Rng;
use alsrac_sat::count;
use alsrac_sat::miter::Miter;
use alsrac_sat::{SatLit, SatResult, Solver, Var};

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

    fn result(&mut self, result: SatResult) {
        self.u64(match result {
            SatResult::Sat => 1,
            SatResult::Unsat => 2,
            SatResult::Unknown => 3,
        });
    }
}

/// Folds one query into `h`: its answer, the work it took and the value
/// of every variable afterwards (the model on `Sat`).
fn record(h: &mut Fnv, solver: &Solver, result: SatResult) {
    h.result(result);
    h.u64(solver.last_conflicts());
    h.u64(solver.last_propagations());
    h.u64(solver.num_clauses() as u64);
    for v in 0..solver.num_vars() {
        h.u64(match solver.try_model_value(var(solver, v)) {
            Some(false) => 0,
            Some(true) => 1,
            None => 2,
        });
    }
}

/// The `index`-th variable of `solver`. `Var` has no public constructor
/// from an index, but variables are allocated densely from 0, so a
/// scratch solver mints the same handles.
fn var(solver: &Solver, index: usize) -> Var {
    assert!(index < solver.num_vars());
    MINT.with(|mint| {
        let (scratch, vars) = &mut *mint.borrow_mut();
        while vars.len() <= index {
            vars.push(scratch.new_var());
        }
        vars[index]
    })
}

thread_local! {
    static MINT: std::cell::RefCell<(Solver, Vec<Var>)> =
        std::cell::RefCell::new((Solver::new(), Vec::new()));
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

/// Flips output `position` of `original` on the input patterns where the
/// first `n - free` inputs are all 1.
fn corrupted(original: &Aig, position: usize, free: usize) -> Aig {
    let mut approx = original.clone();
    let keep = original.num_inputs().saturating_sub(free);
    let gate_inputs: Vec<Lit> = approx.inputs()[..keep].iter().map(|id| id.lit()).collect();
    let gate = approx.and_all(&gate_inputs);
    let flipped = approx.xor(approx.output_lits()[position], gate);
    approx.set_output_lit(position, flipped);
    approx
}

fn bundled() -> impl Iterator<Item = Benchmark> {
    iscas_and_arith(Scale::Test)
        .into_iter()
        .chain(epfl_control(Scale::Test))
        .chain(epfl_arith(Scale::Test))
}

/// Distance queries at a ladder of bounds, then a full binary search and
/// a model count, each on its own miter.
fn miter_digest(original: &Aig, approx: &Aig) -> u64 {
    let mut h = Fnv::new();
    if original.num_outputs() <= 63 {
        let mut miter = Miter::new(original, approx);
        let width = original.num_outputs() as u32;
        for t in [0, 1, 3, (1u64 << (width - 1)) - 1, 1u64 << (width / 2)] {
            let result = miter.distance_exceeds(t);
            record(&mut h, &miter.solver, result);
            for bit in miter.model_inputs() {
                h.u64(bit as u64);
            }
        }
        let mut miter = Miter::new(original, approx);
        let cert = miter.certify_max_distance();
        h.u64(cert.max_distance);
        h.u64(cert.lower_bound);
        h.u64(cert.queries);
        h.u64(cert.complete as u64);
        for bit in cert.witness.iter().flatten() {
            h.u64(*bit as u64);
        }
        record(&mut h, &miter.solver, SatResult::Unknown);
    }
    let mut miter = Miter::new(original, approx);
    let counted = count::count_errors(&mut miter, 7);
    h.u64(counted.count as u64);
    h.u64(counted.sat_queries);
    h.u64(counted.exact as u64);
    record(&mut h, &miter.solver, SatResult::Unknown);
    h.0
}

/// `(circuit, digest)` for every bundled Test-scale circuit against a
/// copy with one output corrupted on 2^6 input patterns.
const MITER_GOLDEN: [(&str, u64); 26] = [
    ("alu4", 0xa376_4aa0_6527_5b03),
    ("c880", 0x9788_164d_36ef_2432),
    ("c1908", 0x61a0_07b3_d214_322c),
    ("c2670", 0xfe4f_2862_3e13_5623),
    ("cla32", 0x856c_0dad_a875_ed4c),
    ("ksa32", 0x918e_b2fd_a288_8dca),
    ("mtp8", 0x59f0_2a56_b934_0e9e),
    ("rca32", 0xbe1c_7e5d_ffe9_d37d),
    ("wal8", 0xee13_d004_9ce1_9b42),
    ("arbiter", 0xe5bb_3eae_d908_7d21),
    ("cavlc", 0x1f65_2273_5eab_5fb2),
    ("alu ctrl", 0xbb10_1316_560c_4be3),
    ("decoder", 0xad1c_28cd_8eea_71bc),
    ("int2float", 0x6516_f4a3_90a7_12b8),
    ("priority", 0x6e1c_20d6_35c3_8901),
    ("router", 0x15c1_9bcc_eb47_f046),
    ("voter", 0xd62a_f065_3d78_5eb3),
    ("adder", 0xbe1c_7e5d_ffe9_d37d),
    ("shifter", 0x0444_d263_a11f_0dc5),
    ("divisor", 0xff29_5324_94da_9f49),
    ("log2", 0xbe11_c717_fe19_d80b),
    ("max", 0xedb0_a3c0_35bb_4034),
    ("mult", 0xee13_d004_9ce1_9b42),
    ("sine", 0xb192_482f_84d5_9b72),
    ("sqrt", 0x8592_73e6_8b52_7225),
    ("square", 0xc1ae_c3c2_9f38_8ab0),
];

#[test]
fn miter_queries_follow_the_recorded_search_path() {
    let benches: Vec<Benchmark> = bundled().collect();
    assert_eq!(benches.len(), MITER_GOLDEN.len());
    let cases = benches
        .iter()
        .zip(MITER_GOLDEN)
        .map(|(bench, (name, want))| {
            assert_eq!(bench.paper_name, name);
            let approx = corrupted(&bench.aig, bench.aig.num_outputs() - 1, 6);
            (name.to_string(), miter_digest(&bench.aig, &approx), want)
        })
        .collect();
    check(cases);
}

/// A Paper-scale miter: the 32-bit ripple-carry adder against a copy
/// whose top sum bit is wrong on 2^10 inputs. The distance queries below
/// the corruption's magnitude are SAT, the ones above it need real UNSAT
/// proofs over 64 inputs.
#[test]
fn paper_scale_adder_miter_follows_the_recorded_search_path() {
    let original = alsrac_circuits::arith::ripple_carry_adder(32);
    let approx = corrupted(&original, 31, 10);
    let mut miter = Miter::new(&original, &approx);
    let mut h = Fnv::new();
    for t in [0, 1 << 20, (1 << 31) - 1, 1 << 31, 1 << 32] {
        let result = miter.distance_exceeds(t);
        record(&mut h, &miter.solver, result);
    }
    check(vec![(
        "rca32 (Paper scale)".to_string(),
        h.0,
        0x086f_fba8_fdc6_14e6,
    )]);
}

/// Random 3-SAT around the satisfiability threshold: a mix of SAT and
/// UNSAT instances, each needing hundreds of conflicts.
fn random_3sat(seed: u64, num_vars: usize, ratio: f64) -> (Solver, bool) {
    let mut rng = Rng::from_seed(seed);
    let mut s = Solver::new();
    let vs: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    let num_clauses = (num_vars as f64 * ratio) as usize;
    let mut ok = true;
    for _ in 0..num_clauses {
        let lits: Vec<SatLit> = (0..3)
            .map(|_| vs[rng.gen_range(0..num_vars)].lit(rng.gen_bool(0.5)))
            .collect();
        ok &= s.add_clause(&lits);
    }
    (s, ok)
}

#[test]
fn random_3sat_follows_the_recorded_search_path() {
    let mut h = Fnv::new();
    for seed in 0..24u64 {
        let num_vars = 40 + 5 * seed as usize;
        let (mut s, ok) = random_3sat(seed, num_vars, 4.26);
        h.u64(ok as u64);
        let result = s.solve();
        record(&mut h, &s, result);
    }
    check(vec![(
        "random 3-SAT".to_string(),
        h.0,
        0x125c_b56e_16e7_a219,
    )]);
}

/// n + 1 pigeons into n holes: UNSAT, and conflict-hungry.
fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) -> Vec<Vec<Var>> {
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        let lits: Vec<SatLit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&lits);
    }
    for (i, row_i) in p.iter().enumerate() {
        for row_j in &p[i + 1..] {
            for (pi, pj) in row_i.iter().zip(row_j) {
                s.add_clause(&[pi.negative(), pj.negative()]);
            }
        }
    }
    p
}

/// Pigeonhole instances, each in its own scope of one long-lived solver:
/// activities grow across queries, and the run passes the 1e100
/// activity rescale (about 4,720 conflicts in one solver) midway.
#[test]
fn pigeonhole_follows_the_recorded_search_path() {
    let mut h = Fnv::new();
    let mut s = Solver::new();
    let mut total = 0;
    for (pigeons, holes) in [
        (5, 4),
        (6, 5),
        (7, 6),
        (8, 7),
        (7, 7),
        (8, 7),
        (9, 9),
        (8, 7),
    ] {
        s.push_scope();
        pigeonhole(&mut s, pigeons, holes);
        let result = s.solve();
        total += s.last_conflicts();
        record(&mut h, &s, result);
        s.pop_scope();
    }
    assert!(
        total > 4_720,
        "the run stopped short of the activity rescale: {total}"
    );
    check(vec![("pigeonhole".to_string(), h.0, 0x1e49_87d6_b8de_9792)]);
}

/// Interleaved scopes, assumptions, blocking clauses and conflict caps on
/// one long-lived solver: learned clauses, saved phases and activities
/// carry over between queries, so every query depends on all before it.
#[test]
fn scope_and_assumption_sequences_follow_the_recorded_search_path() {
    let mut h = Fnv::new();
    for seed in 0..6u64 {
        let mut rng = Rng::from_seed(0x5c09e + seed);
        let (mut s, _) = random_3sat(seed + 100, 60, 3.6);
        let base: Vec<Var> = (0..60).map(|i| var(&s, i)).collect();
        for step in 0..40 {
            match rng.gen_range(0..6) {
                0 if s.scope_depth() < 4 => {
                    s.push_scope();
                }
                1 if s.scope_depth() > 0 => s.pop_scope(),
                2 => {
                    let lits: Vec<SatLit> = (0..3)
                        .map(|_| base[rng.gen_range(0..60)].lit(rng.gen_bool(0.5)))
                        .collect();
                    h.u64(s.add_clause(&lits) as u64);
                }
                3 => {
                    // A conflict cap that binds on some queries only.
                    s.set_budget(
                        Budget::unlimited().with_sat_conflicts(rng.gen_range(0..40) as u64),
                    );
                }
                4 => s.clear_budget(),
                _ => {}
            }
            let assumptions: Vec<SatLit> = (0..rng.gen_range(0..5))
                .map(|_| base[rng.gen_range(0..60)].lit(rng.gen_bool(0.5)))
                .collect();
            let result = s.solve_with_assumptions(&assumptions);
            h.u64(step);
            record(&mut h, &s, result);
            if result == SatResult::Sat && rng.gen_bool(0.5) {
                // Block the model's projection onto a few variables.
                let block: Vec<SatLit> = (0..4)
                    .map(|i| {
                        let v = base[i * 7];
                        v.lit(s.model_value(v))
                    })
                    .collect();
                h.u64(s.add_clause(&block) as u64);
            }
        }
    }
    check(vec![("scopes".to_string(), h.0, 0x1852_4f83_2819_2137)]);
}
