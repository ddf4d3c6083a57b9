//! SAT-backed error certification: exact guarantees for flow results.
//!
//! The flow's measurements are statistical (Monte-Carlo sampling with
//! Wilson bounds); a shippable approximate circuit needs a *certificate*.
//! This module glues `alsrac-sat`'s miter + model-counting machinery to
//! the metric types: [`certify_error_rate`] counts the differing-input
//! set of the original-vs-approximate miter (exact by enumeration, or
//! (ε, δ)-approximate by XOR-hash counting on wide-input circuits), and
//! [`certify_wce`] binary-searches the maximum error distance with
//! comparator clauses. Both return an
//! [`alsrac_metrics::CertifiedMeasurement`].
//!
//! [`WceAcceptGate`] is the accept-side gate of the WCE-constrained flow:
//! a `distance > bound` SAT query replacing the sampled estimate in the
//! acceptance decision, skipped when a counterexample banked from an
//! earlier query already refutes the candidate.
//!
//! **Budgets and degradation.** Every entry point has a `_budgeted`
//! variant threading an [`alsrac_rt::budget::Budget`] into the solver.
//! When a SAT cap cuts a query short the certificate comes back with
//! [`CertStatus::Degraded`] (deterministic — caps count solver events,
//! so the same run always degrades the same way); when the budget's
//! cancel token or deadline interrupts, the gate reports
//! [`WceGate::Interrupted`] and the flow aborts the iteration without
//! letting the nondeterministic answer steer any decision.
//!
//! Telemetry: `cert_miters_built`, `cert_sat_queries`,
//! `cert_wce_searches`, `cert_bank_rejects`, and `cert_degraded`
//! counters plus a `certify` span (the flow adds `cert_candidate_rejects`),
//! all inert when tracing is disabled.

use alsrac_aig::Aig;
use alsrac_metrics::{CertStatus, CertifiedMeasurement, ErrorMetric};
use alsrac_rt::budget::Budget;
use alsrac_rt::trace;
use alsrac_sat::count;
use alsrac_sat::miter::Miter;
use alsrac_sat::SatResult;
use alsrac_sim::{PatternBuffer, Simulation};

/// Certifies the error rate of `approx` against `original` by model
/// counting over the miter inputs.
///
/// Exact (complete enumeration) for input counts up to
/// [`count::ENUMERATION_INPUT_LIMIT`] — and whenever the differing-input
/// set turns out small — otherwise an XOR-hash estimate at
/// ([`count::DEFAULT_EPSILON`], [`count::DEFAULT_DELTA`]). `seed` only
/// influences the hash randomness.
///
/// # Panics
///
/// Panics if the circuits disagree in input or output counts.
pub fn certify_error_rate(original: &Aig, approx: &Aig, seed: u64) -> CertifiedMeasurement {
    certify_error_rate_budgeted(original, approx, seed, &Budget::unlimited())
}

/// [`certify_error_rate`] under a [`Budget`]: the miter solver runs with
/// the budget's SAT caps, cancel token, and deadline attached.
///
/// When any of those cuts the model count short, the certificate comes
/// back with [`CertStatus::Degraded`] and `exact == false`: its `value`
/// is a *proven lower bound* on the error rate (the differing inputs
/// enumerated before the cut), not a guarantee. Callers on the
/// certified path should fall back to their sampled measurement.
///
/// # Panics
///
/// Panics if the circuits disagree in input or output counts.
pub fn certify_error_rate_budgeted(
    original: &Aig,
    approx: &Aig,
    seed: u64,
    budget: &Budget,
) -> CertifiedMeasurement {
    let span = trace::span("certify");
    let mut miter = Miter::new(original, approx);
    miter.solver.set_budget(budget.clone());
    trace::add("cert_miters_built", 1);
    let counted = count::count_errors(&mut miter, seed);
    trace::add("cert_sat_queries", counted.sat_queries);
    let status = if counted.complete {
        CertStatus::Certified
    } else {
        trace::add("cert_degraded", 1);
        CertStatus::Degraded {
            reason: "SAT budget exhausted during error-rate model counting".to_string(),
        }
    };
    span.finish();
    CertifiedMeasurement {
        metric: ErrorMetric::ErrorRate,
        value: counted.rate(),
        exact: counted.exact,
        epsilon: counted.epsilon,
        delta: counted.delta,
        sat_queries: counted.sat_queries,
        status,
    }
}

/// Certifies the exact maximum error distance (WCE) of `approx` against
/// `original` by binary search over `distance > t` comparator queries.
///
/// # Panics
///
/// Panics if the circuits disagree in arity or have more than 63 outputs
/// (error distances are undecodable, as in `alsrac-metrics`).
pub fn certify_wce(original: &Aig, approx: &Aig) -> CertifiedMeasurement {
    certify_wce_budgeted(original, approx, &Budget::unlimited())
}

/// [`certify_wce`] under a [`Budget`]: the miter solver runs with the
/// budget's SAT caps, cancel token, and deadline attached.
///
/// When the binary search is cut short the certificate comes back with
/// [`CertStatus::Degraded`] and `exact == false`: its `value` is still a
/// *sound upper bound* on the maximum error distance (every `Unsat`
/// answer that tightened the bound is a hard fact), just not proven
/// tight.
///
/// # Panics
///
/// Panics if the circuits disagree in arity or have more than 63 outputs.
pub fn certify_wce_budgeted(original: &Aig, approx: &Aig, budget: &Budget) -> CertifiedMeasurement {
    let span = trace::span("certify");
    let mut miter = Miter::new(original, approx);
    miter.solver.set_budget(budget.clone());
    trace::add("cert_miters_built", 1);
    let cert = miter.certify_max_distance();
    trace::add("cert_sat_queries", cert.queries);
    trace::add("cert_wce_searches", 1);
    let status = if cert.complete {
        CertStatus::Certified
    } else {
        trace::add("cert_degraded", 1);
        CertStatus::Degraded {
            reason: "SAT budget exhausted during WCE binary search".to_string(),
        }
    };
    span.finish();
    CertifiedMeasurement {
        metric: ErrorMetric::Wce,
        value: cert.max_distance as f64,
        exact: cert.complete,
        epsilon: 0.0,
        delta: 0.0,
        sat_queries: cert.queries,
        status,
    }
}

/// Outcome of the budgeted WCE accept gate ([`WceAcceptGate::check`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WceGate {
    /// Proven: max error distance ≤ bound. Safe to accept.
    Within,
    /// Proven: some input exceeds the bound. Must reject.
    Exceeds,
    /// A SAT cap cut the query short. Deterministic (caps count solver
    /// events), so the flow may fall back to its sampled estimate
    /// without breaking reproducibility — the certificate is degraded.
    Degraded,
    /// The budget's cancel token or deadline fired mid-query. This is
    /// wall-clock nondeterminism: the answer must not steer any
    /// decision, so the flow aborts the iteration instead.
    Interrupted,
}

/// The WCE accept gate of one flow: is a candidate's maximum error
/// distance against the flow's original circuit at most `bound`?
///
/// Each undecided candidate costs one `distance > bound` SAT query on a
/// fresh miter. Every `Sat` answer comes with a witness input, which the
/// gate keeps in a *counterexample bank* (word-packed, with the original
/// circuit's output value on it simulated once). A later candidate is
/// first simulated on the bank: any banked input whose error distance
/// exceeds the bound refutes it outright, with no miter built. A concrete
/// input is a proof, so under an unlimited budget the bank changes no
/// decision, only its cost. Under a SAT cap it can: a banked witness
/// turns what would have been a capped ([`WceGate::Degraded`]) query
/// into a proven reject.
pub struct WceAcceptGate<'a> {
    original: &'a Aig,
    bound: u64,
    /// Every SAT witness so far, in the order found.
    witnesses: Vec<Vec<bool>>,
    /// `witnesses`, word-packed.
    bank: PatternBuffer,
    /// The original circuit's output value on each witness.
    reference: Vec<u64>,
}

impl<'a> WceAcceptGate<'a> {
    /// A gate with an empty bank.
    pub fn new(original: &'a Aig, bound: u64) -> WceAcceptGate<'a> {
        WceAcceptGate::with_bank(original, bound, Vec::new())
    }

    /// A gate whose bank starts with `witnesses` (as returned by
    /// [`Self::witnesses`], e.g. from a checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if a witness's length differs from the input count.
    pub fn with_bank(
        original: &'a Aig,
        bound: u64,
        witnesses: Vec<Vec<bool>>,
    ) -> WceAcceptGate<'a> {
        let reference = witnesses
            .iter()
            .map(|w| output_value(original, w))
            .collect();
        WceAcceptGate {
            original,
            bound,
            bank: PatternBuffer::from_rows(original.num_inputs(), &witnesses),
            witnesses,
            reference,
        }
    }

    /// The banked witnesses, oldest first.
    pub fn witnesses(&self) -> &[Vec<bool>] {
        &self.witnesses
    }

    /// Decides `candidate` under `budget`: refuted by a banked witness, or
    /// else by one `distance > bound` SAT query.
    ///
    /// An `Unknown` solver answer is classified [`WceGate::Interrupted`]
    /// when the budget's cancel token or deadline has fired
    /// (nondeterministic cut — the caller must abort, not decide) and
    /// [`WceGate::Degraded`] otherwise (a deterministic SAT cap — the
    /// caller may fall back to its sampled estimate).
    ///
    /// # Panics
    ///
    /// Panics if the circuits disagree in arity or have more than 63
    /// outputs.
    pub fn check(&mut self, candidate: &Aig, budget: &Budget) -> WceGate {
        let span = trace::span("certify");
        let gate = if self.bank_refutes(candidate) {
            trace::add("cert_bank_rejects", 1);
            WceGate::Exceeds
        } else {
            let mut miter = Miter::new(self.original, candidate);
            miter.solver.set_budget(budget.clone());
            trace::add("cert_miters_built", 1);
            trace::add("cert_sat_queries", 1);
            match miter.distance_exceeds(self.bound) {
                SatResult::Unsat => WceGate::Within,
                SatResult::Sat => {
                    let witness = miter.witness_inputs().expect("Sat leaves a witness");
                    self.bank_witness(witness.to_vec());
                    debug_assert!(self.bank_refutes(candidate), "witness must refute");
                    WceGate::Exceeds
                }
                SatResult::Unknown => {
                    if budget.interrupted().is_some() {
                        WceGate::Interrupted
                    } else {
                        trace::add("cert_degraded", 1);
                        WceGate::Degraded
                    }
                }
            }
        };
        span.finish();
        gate
    }

    fn bank_witness(&mut self, witness: Vec<bool>) {
        self.reference.push(output_value(self.original, &witness));
        self.witnesses.push(witness);
        self.bank = PatternBuffer::from_rows(self.original.num_inputs(), &self.witnesses);
    }

    /// Whether some banked input drives `candidate` more than `bound` away
    /// from the original circuit.
    fn bank_refutes(&self, candidate: &Aig) -> bool {
        if self.witnesses.is_empty() {
            return false;
        }
        let sim = Simulation::new_untraced(candidate, &self.bank);
        let outputs = candidate.outputs();
        self.reference.iter().enumerate().any(|(p, &reference)| {
            let value = outputs.iter().enumerate().fold(0u64, |value, (i, out)| {
                value | u64::from(sim.lit_bit(out.lit, p)) << i
            });
            value.abs_diff(reference) > self.bound
        })
    }
}

/// The outputs of `aig` on `inputs` as an unsigned little-endian integer
/// (output `i` contributes `2^i`, as in `alsrac-metrics`).
fn output_value(aig: &Aig, inputs: &[bool]) -> u64 {
    aig.evaluate(inputs)
        .iter()
        .enumerate()
        .fold(0u64, |value, (i, &bit)| value | u64::from(bit) << i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_aig::Lit;
    use alsrac_circuits::catalog::{epfl_arith, epfl_control, iscas_and_arith, Benchmark, Scale};

    /// Flips output `position` of `original` on the input patterns where
    /// the first `n - 6` inputs are all 1 — at most 64 differing patterns
    /// on any circuit, so exact enumeration stays cheap in the sweeps.
    fn corrupted(original: &Aig, position: usize) -> Aig {
        let mut approx = original.clone();
        let keep = original.num_inputs().saturating_sub(6);
        let gate_inputs: Vec<Lit> = approx.inputs()[..keep].iter().map(|id| id.lit()).collect();
        let gate = approx.and_all(&gate_inputs);
        let flipped = approx.xor(approx.output_lits()[position], gate);
        approx.set_output_lit(position, flipped);
        approx
    }

    /// A one-query gate: the unlimited-budget decision on an empty bank.
    fn wce_within(original: &Aig, approx: &Aig, bound: u64) -> bool {
        WceAcceptGate::new(original, bound).check(approx, &Budget::unlimited()) == WceGate::Within
    }

    fn wce_gate(original: &Aig, approx: &Aig, bound: u64, budget: &Budget) -> WceGate {
        WceAcceptGate::new(original, bound).check(approx, budget)
    }

    fn bundled(scale: Scale) -> impl Iterator<Item = Benchmark> {
        iscas_and_arith(scale)
            .into_iter()
            .chain(epfl_control(scale))
            .chain(epfl_arith(scale))
    }

    #[test]
    fn certified_error_rate_matches_exhaustive_on_all_bundled_circuits() {
        let mut swept = 0;
        for bench in bundled(Scale::Test) {
            if bench.aig.num_inputs() > alsrac_metrics::EXHAUSTIVE_INPUT_LIMIT {
                continue;
            }
            let approx = corrupted(&bench.aig, 0);
            let patterns = alsrac_sim::PatternBuffer::exhaustive(bench.aig.num_inputs());
            let measured =
                alsrac_metrics::measure(&bench.aig, &approx, &patterns).expect("measure");
            let cert = certify_error_rate(&bench.aig, &approx, 7);
            assert!(
                cert.exact,
                "{}: certificate must be exact",
                bench.paper_name
            );
            assert!(
                measured.error_rate > 0.0,
                "{}: corruption inert",
                bench.paper_name
            );
            assert_eq!(
                cert.value, measured.error_rate,
                "{}: model count disagrees with exhaustive simulation",
                bench.paper_name
            );
            swept += 1;
        }
        assert!(swept >= 9, "only {swept} circuits swept");
    }

    #[test]
    fn certified_wce_matches_exhaustive_on_bundled_circuits() {
        let mut swept = 0;
        for bench in bundled(Scale::Test) {
            if bench.aig.num_inputs() > alsrac_metrics::EXHAUSTIVE_INPUT_LIMIT
                || bench.aig.num_outputs() > 63
            {
                continue;
            }
            let approx = corrupted(&bench.aig, bench.aig.num_outputs() - 1);
            let patterns = alsrac_sim::PatternBuffer::exhaustive(bench.aig.num_inputs());
            let measured =
                alsrac_metrics::measure(&bench.aig, &approx, &patterns).expect("measure");
            let expected = measured.max_error_distance.expect("decodable");
            let cert = certify_wce(&bench.aig, &approx);
            assert!(
                cert.exact,
                "{}: WCE certificates are exact",
                bench.paper_name
            );
            assert_eq!(
                cert.value, expected as f64,
                "{}: binary search disagrees with exhaustive simulation",
                bench.paper_name
            );
            assert!(
                wce_within(&bench.aig, &approx, expected),
                "{}",
                bench.paper_name
            );
            assert!(
                expected == 0 || !wce_within(&bench.aig, &approx, expected - 1),
                "{}: bound below the maximum must fail",
                bench.paper_name
            );
            swept += 1;
        }
        assert!(swept >= 9, "only {swept} circuits swept");
    }

    #[test]
    fn identical_circuits_certify_zero() {
        let a = alsrac_circuits::arith::ripple_carry_adder(3);
        let er = certify_error_rate(&a, &a.clone(), 1);
        assert!(er.exact);
        assert_eq!(er.value, 0.0);
        let wce = certify_wce(&a, &a.clone());
        assert_eq!(wce.value, 0.0);
        assert!(wce_within(&a, &a.clone(), 0));
    }

    #[test]
    fn budget_starved_certificates_degrade_instead_of_hanging() {
        // Propagation cap 0 makes every solver query answer Unknown
        // deterministically: both certifiers must come back Degraded
        // with sound (lower/upper bound) values, never panic or hang.
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let approx = corrupted(&original, 0);
        let starved = Budget::unlimited().with_sat_propagations(0);

        let er = certify_error_rate_budgeted(&original, &approx, 7, &starved);
        assert!(!er.status.is_certified(), "{:?}", er.status);
        assert!(!er.exact);
        let full = certify_error_rate(&original, &approx, 7);
        assert!(full.status.is_certified());
        assert!(
            er.value <= full.value,
            "degraded rate must be a lower bound"
        );

        let wce = certify_wce_budgeted(&original, &approx, &starved);
        assert!(!wce.status.is_certified(), "{:?}", wce.status);
        assert!(!wce.exact);
        let full_wce = certify_wce(&original, &approx);
        assert!(full_wce.status.is_certified());
        assert!(full_wce.exact);
        assert!(
            wce.value >= full_wce.value,
            "degraded WCE must stay a sound upper bound"
        );
    }

    #[test]
    fn wce_gate_classifies_unknown_by_interrupt_kind() {
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let approx = corrupted(&original, 0);
        let bound = certify_wce(&original, &approx).value as u64;

        // Unlimited budget: hard answers on both sides of the bound.
        let unlimited = Budget::unlimited();
        assert_eq!(
            wce_gate(&original, &approx, bound, &unlimited),
            WceGate::Within
        );
        assert!(bound > 0, "corruption inert");
        assert_eq!(
            wce_gate(&original, &approx, bound - 1, &unlimited),
            WceGate::Exceeds
        );

        // Deterministic SAT cap: Unknown classifies as Degraded.
        let starved = Budget::unlimited().with_sat_propagations(0);
        assert_eq!(
            wce_gate(&original, &approx, bound - 1, &starved),
            WceGate::Degraded
        );

        // Tripped cancel token: Unknown classifies as Interrupted.
        let token = alsrac_rt::budget::CancelToken::new();
        token.trip();
        let cancelled = Budget::unlimited()
            .with_cancel(token)
            .with_sat_propagations(0);
        assert_eq!(
            wce_gate(&original, &approx, bound - 1, &cancelled),
            WceGate::Interrupted
        );
    }

    #[test]
    fn certified_rate_matches_exhaustive_measurement() {
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        approx.set_output_lit(1, Lit::FALSE);
        let patterns = alsrac_sim::PatternBuffer::exhaustive(original.num_inputs());
        let measured = alsrac_metrics::measure(&original, &approx, &patterns).expect("measure");
        let cert = certify_error_rate(&original, &approx, 1);
        assert!(cert.exact);
        assert_eq!(cert.value, measured.error_rate);
    }

    #[test]
    fn certified_wce_matches_exhaustive_measurement() {
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        let last = approx.num_outputs() - 1;
        approx.set_output_lit(last, Lit::FALSE);
        let patterns = alsrac_sim::PatternBuffer::exhaustive(original.num_inputs());
        let measured = alsrac_metrics::measure(&original, &approx, &patterns).expect("measure");
        let cert = certify_wce(&original, &approx);
        assert_eq!(
            cert.value,
            measured.max_error_distance.expect("decodable") as f64
        );
        let bound = cert.value as u64;
        assert!(wce_within(&original, &approx, bound));
        assert!(!wce_within(&original, &approx, bound - 1));
    }
}
