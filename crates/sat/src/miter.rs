//! Miter construction between an original and an approximate circuit.
//!
//! A [`Miter`] encodes both circuits over **shared** input variables
//! ([`Encoding::with_inputs`]), materializes every output into its own
//! solver variable, and defines per-output difference variables plus a
//! single *any-difference* variable. On top of that it can certify the
//! **maximum error distance** (WCE): the outputs are interpreted as
//! unsigned little-endian integers (output `i` contributes `2^i`, matching
//! `alsrac-metrics`), an absolute-difference circuit is encoded once, and
//! each `distance > t` query encodes a greater-than comparator inside a
//! solver scope so it retracts cleanly while learned clauses persist.
//!
//! The any-difference variable is asserted via *assumptions*, never as a
//! clause, so one miter serves error-rate counting ([`crate::count`]) and
//! WCE certification back to back.

use alsrac_aig::{Aig, Lit};

use crate::encode::Encoding;
use crate::{SatLit, SatResult, Solver, Var};

/// A two-circuit miter with materialized outputs and WCE machinery.
pub struct Miter {
    /// The underlying solver; exposed so counting and certification
    /// drivers can push scopes and add constraints of their own.
    pub solver: Solver,
    inputs: Vec<Var>,
    diff_any: Var,
    /// Bits of |original - approx| (LSB first); empty when the circuits
    /// have more than 63 outputs (distance undecodable, as in metrics).
    dist_bits: Vec<Var>,
    /// Witness of the most recent `Sat` distance query: (distance, inputs).
    last_witness: Option<(u64, Vec<bool>)>,
}

impl Miter {
    /// Builds the miter between `original` and `approx`.
    ///
    /// # Panics
    ///
    /// Panics if the circuits disagree in input or output counts.
    pub fn new(original: &Aig, approx: &Aig) -> Miter {
        assert_eq!(
            original.num_inputs(),
            approx.num_inputs(),
            "miter input arity"
        );
        assert_eq!(
            original.num_outputs(),
            approx.num_outputs(),
            "miter output arity"
        );
        let mut solver = Solver::new();
        let (enc_a, inputs) = Encoding::new(&mut solver, original);
        let enc_b = Encoding::with_inputs(&mut solver, approx, &inputs);

        // Materialize every output literal into its own variable so the
        // distance circuit below can be encoded over plain `Var`s.
        let out_a = materialize(&mut solver, original, &enc_a);
        let out_b = materialize(&mut solver, approx, &enc_b);

        // diff_o <-> out_a[o] xor out_b[o]; diff_any <-> OR(diff_o).
        let mut diffs: Vec<SatLit> = Vec::with_capacity(out_a.len());
        for (&a, &b) in out_a.iter().zip(&out_b) {
            let d = solver.new_var();
            solver.add_clause(&[d.negative(), a.positive(), b.positive()]);
            solver.add_clause(&[d.negative(), a.negative(), b.negative()]);
            solver.add_clause(&[d.positive(), a.negative(), b.positive()]);
            solver.add_clause(&[d.positive(), a.positive(), b.negative()]);
            diffs.push(d.positive());
        }
        let diff_any = solver.new_var();
        let mut any_clause: Vec<SatLit> = Vec::with_capacity(diffs.len() + 1);
        any_clause.push(diff_any.negative());
        for &d in &diffs {
            solver.add_clause(&[!d, diff_any.positive()]);
            any_clause.push(d);
        }
        solver.add_clause(&any_clause);

        // Absolute difference |A - B|, encoded once over the materialized
        // output variables. Only decodable up to 63 outputs.
        let dist_bits = if (1..=63).contains(&original.num_outputs()) {
            let width = original.num_outputs();
            let abs = abs_diff_aig(width);
            let mut io: Vec<Var> = Vec::with_capacity(2 * width);
            io.extend_from_slice(&out_a);
            io.extend_from_slice(&out_b);
            let enc = Encoding::with_inputs(&mut solver, &abs, &io);
            materialize(&mut solver, &abs, &enc)
        } else {
            Vec::new()
        };

        Miter {
            solver,
            inputs,
            diff_any,
            dist_bits,
            last_witness: None,
        }
    }

    /// Shared primary-input variables (index = circuit input index).
    pub fn inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// The literal asserting *some output differs*; pass it as an
    /// assumption (or inside a scope) — it is never asserted globally.
    pub fn differs(&self) -> SatLit {
        self.diff_any.positive()
    }

    /// Whether error distances are decodable (1..=63 outputs).
    pub fn has_distance(&self) -> bool {
        !self.dist_bits.is_empty()
    }

    /// Reads the input assignment of the current model (LSB of the model
    /// as the solver saw it; unassigned pure inputs default to their saved
    /// phase, which is a valid completion).
    pub fn model_inputs(&self) -> Vec<bool> {
        self.inputs
            .iter()
            .map(|&v| self.solver.model_value(v))
            .collect()
    }

    /// Reads |A - B| from the current model.
    ///
    /// # Panics
    ///
    /// Panics if distances are not decodable ([`Self::has_distance`]).
    pub fn model_distance(&self) -> u64 {
        assert!(self.has_distance(), "distance undecodable (>63 outputs)");
        let mut d = 0u64;
        for (i, &bit) in self.dist_bits.iter().enumerate() {
            d |= u64::from(self.solver.model_value(bit)) << i;
        }
        d
    }

    /// Is there an input with error distance strictly greater than `t`?
    ///
    /// Encodes a `> t` comparator inside a fresh solver scope (retracted
    /// before returning), so repeated queries reuse learned clauses. On
    /// `Sat`, [`Self::model_distance`] / [`Self::model_inputs`] expose a
    /// witness. A budgeted solver (see [`Solver::set_budget`]) may answer
    /// [`SatResult::Unknown`]; the scope is still popped and the miter
    /// stays usable.
    ///
    /// # Panics
    ///
    /// Panics if distances are not decodable ([`Self::has_distance`]).
    pub fn distance_exceeds(&mut self, t: u64) -> SatResult {
        assert!(self.has_distance(), "distance undecodable (>63 outputs)");
        let width = self.dist_bits.len();
        if t >> width != 0 {
            return SatResult::Unsat; // |A - B| < 2^width <= t + 1
        }
        self.solver.push_scope();
        let cmp = gt_const_aig(width, t);
        let enc = Encoding::with_inputs(&mut self.solver, &cmp, &self.dist_bits);
        let gt = enc.sat_lit(cmp.outputs()[0].lit);
        let result = self.solver.solve_with_assumptions(&[gt]);
        // Read the witness *before* popping: the pop backtracks the trail.
        let witness = match result {
            SatResult::Sat => Some((self.model_distance(), self.model_inputs())),
            SatResult::Unsat | SatResult::Unknown => None,
        };
        self.solver.pop_scope();
        self.last_witness = witness;
        result
    }

    /// The input assignment witnessing the most recent
    /// [`Self::distance_exceeds`] answer: `Some` after `Sat`, `None` after
    /// `Unsat` or `Unknown`.
    pub fn witness_inputs(&self) -> Option<&[bool]> {
        self.last_witness
            .as_ref()
            .map(|(_, inputs)| inputs.as_slice())
    }

    /// Certifies the exact maximum error distance by binary search on
    /// [`Self::distance_exceeds`]. Every `Sat` answer tightens the lower
    /// bound to the *witnessed* distance, so the search typically needs
    /// far fewer than `width` queries.
    ///
    /// With a budgeted solver the search can be cut short by an `Unknown`
    /// answer; it then stops and reports an **incomplete** certificate.
    /// The interval it carries is still sound: `max_distance` is a proven
    /// upper bound (from `Unsat` answers or the trivial `2^width − 1`) and
    /// `lower_bound` a witnessed, achievable distance.
    ///
    /// # Panics
    ///
    /// Panics if distances are not decodable ([`Self::has_distance`]).
    pub fn certify_max_distance(&mut self) -> WceCertificate {
        assert!(self.has_distance(), "distance undecodable (>63 outputs)");
        let width = self.dist_bits.len() as u32;
        let mut lo = 0u64; // a witnessed, achievable distance
        let mut hi = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }; // invariant: max distance <= hi
        let mut queries = 0u64;
        let mut witness = None;
        let mut complete = true;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            queries += 1;
            match self.distance_exceeds(mid) {
                SatResult::Sat => {
                    let (d, inputs) = self
                        .last_witness
                        .take()
                        .expect("Sat distance query leaves a witness");
                    debug_assert!(d > mid, "witness must exceed the bound");
                    lo = d.max(mid + 1);
                    witness = Some(inputs);
                }
                SatResult::Unsat => hi = mid,
                SatResult::Unknown => {
                    complete = false;
                    break;
                }
            }
        }
        WceCertificate {
            max_distance: hi,
            lower_bound: lo.min(hi),
            complete,
            queries,
            witness,
        }
    }
}

/// Result of a WCE certification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WceCertificate {
    /// The maximum error distance over all inputs: exact when
    /// [`Self::complete`], otherwise a proven upper bound.
    pub max_distance: u64,
    /// A witnessed, achievable distance (equals [`Self::max_distance`]
    /// when the search completed).
    pub lower_bound: u64,
    /// Whether the binary search ran to completion. `false` only when a
    /// solver budget cut a query short ([`SatResult::Unknown`]).
    pub complete: bool,
    /// Number of `distance > t` SAT queries the binary search issued.
    pub queries: u64,
    /// An input assignment achieving [`Self::lower_bound`] (None iff it
    /// is 0).
    pub witness: Option<Vec<bool>>,
}

/// Materializes each output literal of `aig` (under `enc`) into a fresh
/// solver variable with two equivalence clauses.
fn materialize(solver: &mut Solver, aig: &Aig, enc: &Encoding) -> Vec<Var> {
    aig.outputs()
        .iter()
        .map(|out| {
            let lit = enc.sat_lit(out.lit);
            let v = solver.new_var();
            solver.add_clause(&[v.negative(), lit]);
            solver.add_clause(&[v.positive(), !lit]);
            v
        })
        .collect()
}

/// Builds the combinational |A - B| circuit over 2×`width` inputs
/// (A bits first, then B bits, both LSB first), `width` outputs.
///
/// Two ripple borrow-subtractors compute A−B and B−A; the borrow-out of
/// A−B selects which one is the magnitude (borrow set ⇔ A < B).
fn abs_diff_aig(width: usize) -> Aig {
    let mut aig = Aig::new("abs_diff");
    let a = aig.add_inputs("a", width);
    let b = aig.add_inputs("b", width);
    let (ab, ab_borrow) = subtract(&mut aig, &a, &b);
    let (ba, _) = subtract(&mut aig, &b, &a);
    for i in 0..width {
        let bit = aig.mux(ab_borrow, ba[i], ab[i]);
        aig.add_output(format!("d{i}"), bit);
    }
    aig
}

/// Ripple borrow-subtractor: returns (x − y mod 2^width, borrow-out).
fn subtract(aig: &mut Aig, x: &[Lit], y: &[Lit]) -> (Vec<Lit>, Lit) {
    let mut borrow = Lit::FALSE;
    let mut out = Vec::with_capacity(x.len());
    for (&xi, &yi) in x.iter().zip(y) {
        let xy = aig.xor(xi, yi);
        out.push(aig.xor(xy, borrow));
        // borrow_out = (!x & y) | (xnor(x, y) & borrow_in)
        let lend = aig.and(!xi, yi);
        let keep = aig.and(!xy, borrow);
        borrow = aig.or(lend, keep);
    }
    (out, borrow)
}

/// Builds a comparator circuit: one output, true iff the `width`-bit
/// little-endian input value is strictly greater than the constant `t`.
fn gt_const_aig(width: usize, t: u64) -> Aig {
    let mut aig = Aig::new("gt_const");
    let bits = aig.add_inputs("v", width);
    // MSB-first: gt accumulates "already greater on a higher bit while all
    // bits above agreed"; eq accumulates "all bits so far agree with t".
    let mut gt = Lit::FALSE;
    let mut eq = Lit::TRUE;
    for i in (0..width).rev() {
        let ti = t >> i & 1 != 0;
        if !ti {
            let here = aig.and(eq, bits[i]);
            gt = aig.or(gt, here);
        }
        // eq &= (bits[i] == ti)
        let agree = bits[i].complement_if(!ti);
        eq = aig.and(eq, agree);
    }
    aig.add_output("gt", gt);
    aig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_u64(aig: &Aig, inputs: &[bool]) -> u64 {
        aig.evaluate(inputs)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    #[test]
    fn abs_diff_circuit_is_exact() {
        let width = 4;
        let aig = abs_diff_aig(width);
        for a in 0u64..16 {
            for b in 0u64..16 {
                let mut inputs = Vec::with_capacity(2 * width);
                for i in 0..width {
                    inputs.push(a >> i & 1 != 0);
                }
                for i in 0..width {
                    inputs.push(b >> i & 1 != 0);
                }
                assert_eq!(eval_u64(&aig, &inputs), a.abs_diff(b), "|{a}-{b}|");
            }
        }
    }

    #[test]
    fn gt_const_circuit_is_exact() {
        let width = 4;
        for t in 0u64..16 {
            let aig = gt_const_aig(width, t);
            for v in 0u64..16 {
                let inputs: Vec<bool> = (0..width).map(|i| v >> i & 1 != 0).collect();
                assert_eq!(aig.evaluate(&inputs)[0], v > t, "{v} > {t}");
            }
        }
    }

    #[test]
    fn identical_circuits_never_differ() {
        let a = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut miter = Miter::new(&a, &a.clone());
        let differs = miter.differs();
        assert_eq!(
            miter.solver.solve_with_assumptions(&[differs]),
            SatResult::Unsat
        );
        let cert = miter.certify_max_distance();
        assert_eq!(cert.max_distance, 0);
        assert_eq!(cert.witness, None);
    }

    #[test]
    fn wce_matches_exhaustive_evaluation() {
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        // Drop the top sum bit: distance spikes when that bit is set.
        let last = approx.num_outputs() - 1;
        approx.set_output_lit(last, Lit::FALSE);

        let n = original.num_inputs();
        let mut want = 0u64;
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            let d = eval_u64(&original, &bits).abs_diff(eval_u64(&approx, &bits));
            want = want.max(d);
        }

        let mut miter = Miter::new(&original, &approx);
        let cert = miter.certify_max_distance();
        assert_eq!(cert.max_distance, want);
        let witness = cert.witness.expect("nonzero distance has a witness");
        let d = eval_u64(&original, &witness).abs_diff(eval_u64(&approx, &witness));
        assert_eq!(d, want, "witness must achieve the maximum");
    }

    #[test]
    fn complete_certificates_have_matching_bounds() {
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        approx.set_output_lit(0, Lit::FALSE);
        let mut miter = Miter::new(&original, &approx);
        let cert = miter.certify_max_distance();
        assert!(cert.complete);
        assert_eq!(cert.lower_bound, cert.max_distance);
    }

    #[test]
    fn budget_starved_wce_search_reports_a_sound_interval() {
        use alsrac_rt::budget::Budget;
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        let last = approx.num_outputs() - 1;
        approx.set_output_lit(last, Lit::FALSE);
        let mut reference = Miter::new(&original, &approx);
        let exact = reference.certify_max_distance();
        assert!(exact.complete);

        let mut miter = Miter::new(&original, &approx);
        // Every query answers Unknown: the search must stop immediately
        // with the trivial-but-sound interval, not loop or lie.
        miter
            .solver
            .set_budget(Budget::default().with_sat_propagations(0));
        let cert = miter.certify_max_distance();
        assert!(!cert.complete);
        assert!(cert.lower_bound <= exact.max_distance);
        assert!(cert.max_distance >= exact.max_distance, "upper bound sound");
        assert_eq!(miter.solver.scope_depth(), 0);
        // Clearing the budget, the same miter finishes the job.
        miter.solver.clear_budget();
        let again = miter.certify_max_distance();
        assert!(again.complete);
        assert_eq!(again.max_distance, exact.max_distance);
    }

    #[test]
    fn distance_queries_are_repeatable_after_scope_pops() {
        let original = alsrac_circuits::arith::ripple_carry_adder(2);
        let mut approx = original.clone();
        approx.set_output_lit(0, Lit::FALSE);
        let mut miter = Miter::new(&original, &approx);
        let first = miter.certify_max_distance();
        let second = miter.certify_max_distance();
        assert_eq!(first.max_distance, second.max_distance);
        // And the plain differs() query still works on the same miter.
        let differs = miter.differs();
        assert_eq!(
            miter.solver.solve_with_assumptions(&[differs]),
            SatResult::Sat
        );
    }
}
