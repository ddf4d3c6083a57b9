//! Deterministic fault-injection property suite for the budgeted flow.
//!
//! The contract under test (DESIGN.md "Budgets, cancellation, and
//! degradation"):
//!
//! 1. **Interrupt anywhere, resume bit-identically.** A cancel fault
//!    injected at *any* trace-span ordinal either leaves the run
//!    untouched (fired after the last poll) or interrupts it with a
//!    checkpoint from which `flow::resume` reproduces the uninterrupted
//!    run bit for bit — circuit structure, history floats, measurement —
//!    at worker-thread counts 1, 3, and 7, on two bundled circuits, and
//!    on a SAT-capped WCE flow whose checkpoints carry the accept gate's
//!    counterexample bank.
//! 2. **SAT starvation degrades, never hangs.** A WCE flow whose every
//!    SAT query is budget-starved still completes, returning a
//!    `Degraded` certificate instead of blocking on the solver.
//! 3. **Trace-sink failure is invisible.** A sink that starts failing
//!    mid-run changes nothing about the `FlowResult`.
//!
//! Fault state is process-global, so every test that arms a plan holds
//! [`lock`] for its duration.

use std::sync::{Mutex, MutexGuard, OnceLock};

use alsrac::checkpoint::Checkpoint;
use alsrac::flow::{self, run, FlowConfig, FlowOutcome, FlowResult};
use alsrac_aig::Aig;
use alsrac_circuits::{aiger, arith};
use alsrac_metrics::{CertStatus, ErrorMetric};
use alsrac_rt::budget::{Budget, CancelToken};
use alsrac_rt::faults::{self, FaultAction, FaultPlan, FlakySink};
use alsrac_rt::pool::with_threads;
use alsrac_rt::trace;

/// Serializes tests that touch the process-global fault plan.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The two bundled circuits the CI fault-smoke gate runs on.
fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("rca3", arith::ripple_carry_adder(3)),
        ("ksa3", arith::kogge_stone_adder(3)),
    ]
}

fn er_config(budget: Budget) -> FlowConfig {
    FlowConfig {
        metric: ErrorMetric::ErrorRate,
        threshold: 0.15,
        seed: 11,
        max_iterations: 24,
        budget,
        ..FlowConfig::default()
    }
}

/// Full structural identity: the ASCII AIGER text pins every node,
/// literal, and name.
fn structure(aig: &Aig) -> String {
    aiger::write_ascii(aig)
}

/// Asserts two flow results are bit-identical (the resume contract).
fn assert_bit_identical(label: &str, got: &FlowResult, want: &FlowResult) {
    assert_eq!(got.iterations, want.iterations, "{label}: iterations");
    assert_eq!(got.applied, want.applied, "{label}: applied");
    assert_eq!(
        got.history.len(),
        want.history.len(),
        "{label}: history length"
    );
    for (i, (g, w)) in got.history.iter().zip(&want.history).enumerate() {
        assert_eq!(
            g.estimated_error.to_bits(),
            w.estimated_error.to_bits(),
            "{label}: history[{i}].estimated_error"
        );
        assert_eq!(g.ands, w.ands, "{label}: history[{i}].ands");
        assert_eq!(g.rounds, w.rounds, "{label}: history[{i}].rounds");
    }
    assert_eq!(
        got.measured.error_rate.to_bits(),
        want.measured.error_rate.to_bits(),
        "{label}: measured.error_rate"
    );
    assert_eq!(
        got.measured.nmed.map(f64::to_bits),
        want.measured.nmed.map(f64::to_bits),
        "{label}: measured.nmed"
    );
    assert_eq!(
        got.measured.mred.map(f64::to_bits),
        want.measured.mred.map(f64::to_bits),
        "{label}: measured.mred"
    );
    assert_eq!(
        got.measured.num_patterns, want.measured.num_patterns,
        "{label}: measured.num_patterns"
    );
    assert_eq!(
        structure(&got.approx),
        structure(&want.approx),
        "{label}: approx structure"
    );
    assert_eq!(got.outcome, want.outcome, "{label}: outcome");
}

/// Counts the trace spans a clean run of `config` opens (the injection
/// horizon), using a never-firing armed plan as the span counter.
fn span_horizon(original: &Aig, config: &FlowConfig) -> u64 {
    faults::arm(FaultPlan {
        fire_at_span: u64::MAX,
        action: FaultAction::Cancel,
    });
    run(original, config).expect("horizon run");
    let horizon = faults::spans_seen();
    faults::disarm();
    assert!(horizon > 0, "flow opened no spans — horizon is empty");
    horizon
}

/// The core property: sweep seeded cancel-fault injection points over the
/// whole span horizon; every interrupted run must checkpoint and resume
/// to the uninterrupted result, bit for bit. Returns the checkpoints of
/// the sweep's interrupted runs.
fn cancel_resume_property(
    name: &str,
    original: &Aig,
    fault_seeds: u64,
    config: impl Fn(Budget) -> FlowConfig,
) -> Vec<Checkpoint> {
    let reference = run(original, &config(Budget::unlimited())).expect("reference run");
    assert_eq!(reference.outcome, FlowOutcome::Completed);
    assert!(
        reference.applied > 0,
        "{name}: reference applied nothing — the sweep would be vacuous"
    );
    let horizon = span_horizon(original, &config(Budget::unlimited()));

    let mut interrupted = Vec::new();
    for fault_seed in 0..fault_seeds {
        let plan = FaultPlan::seeded(fault_seed, horizon, FaultAction::Cancel);
        let token = CancelToken::new();
        faults::set_cancel_token(Some(token.clone()));
        faults::arm(plan);
        let result =
            run(original, &config(Budget::unlimited().with_cancel(token))).expect("faulted run");
        faults::disarm();
        faults::set_cancel_token(None);

        let label = format!("{name} fault_seed={fault_seed} span={}", plan.fire_at_span);
        match &result.outcome {
            FlowOutcome::Completed => {
                // Fired after the last poll (or never): the token must not
                // have steered anything.
                assert_bit_identical(&label, &result, &reference);
                assert!(result.checkpoint.is_none(), "{label}: spurious checkpoint");
            }
            FlowOutcome::Interrupted { reason } => {
                assert_eq!(reason, "cancelled", "{label}");
                assert!(
                    result.certificate.is_none(),
                    "{label}: interrupted runs must not certify"
                );
                assert!(
                    result.applied <= reference.applied,
                    "{label}: interrupted run applied more than the reference"
                );
                let checkpoint = result
                    .checkpoint
                    .clone()
                    .expect("interrupted run must checkpoint");
                // The checkpoint must survive its serialized form — the
                // CLI writes JSON and a later process parses it back.
                let parsed = alsrac::checkpoint::Checkpoint::parse(&checkpoint.to_json())
                    .expect("flow-produced checkpoint must round-trip");
                assert_eq!(
                    parsed.to_json(),
                    checkpoint.to_json(),
                    "{label}: round-trip"
                );
                let resumed =
                    flow::resume(original, &config(Budget::unlimited()), parsed).expect("resume");
                assert_bit_identical(&format!("{label} resumed"), &resumed, &reference);
                interrupted.push(checkpoint);
            }
        }
    }
    interrupted
}

#[test]
fn cancel_faults_resume_bit_identically_on_both_circuits() {
    let _guard = lock();
    for (name, original) in circuits() {
        let interrupted = cancel_resume_property(name, &original, 12, er_config);
        assert!(
            !interrupted.is_empty(),
            "{name}: no injection point interrupted the run — sweep is vacuous"
        );
    }
}

#[test]
fn resume_is_bit_identical_across_thread_counts() {
    let _guard = lock();
    let original = arith::kogge_stone_adder(3);
    let mut per_thread_reference: Vec<FlowResult> = Vec::new();
    for threads in [1usize, 3, 7] {
        let reference = with_threads(threads, || {
            let interrupted =
                cancel_resume_property(&format!("ksa3@{threads}t"), &original, 6, er_config);
            assert!(!interrupted.is_empty(), "{threads} threads: vacuous sweep");
            run(&original, &er_config(Budget::unlimited())).expect("reference")
        });
        per_thread_reference.push(reference);
    }
    // The uninterrupted result itself is thread-count invariant, so the
    // three sweeps above all proved resumption onto the same bits.
    let (first, rest) = per_thread_reference.split_first().expect("three runs");
    for (i, other) in rest.iter().enumerate() {
        assert_bit_identical(&format!("threads[{}] vs threads[0]", i + 1), other, first);
    }
}

/// A WCE flow on a 24-input adder whose SAT cap cuts some accept-gate
/// proofs short (degrading them to the sampled estimate) but not all, and
/// whose coarse 64-pattern estimate lets the gate bank SAT witnesses and
/// refute later candidates with them.
fn capped_wce_config(budget: Budget) -> FlowConfig {
    FlowConfig {
        metric: ErrorMetric::Wce,
        threshold: 16.0,
        seed: 5,
        max_iterations: 24,
        est_rounds: 64,
        budget: budget.with_sat_conflicts(100),
        ..FlowConfig::default()
    }
}

/// Under a SAT cap a banked witness can reject a candidate whose own
/// query would have degraded into an accept, so the bank is part of the
/// flow's state: interrupted runs must carry it in their checkpoints.
#[test]
fn sat_capped_wce_flow_resumes_bit_identically_with_its_bank() {
    let _guard = lock();
    faults::disarm();
    let original = arith::kogge_stone_adder(12);

    trace::reset();
    trace::enable_writer(Box::new(std::io::sink()));
    let reference = run(&original, &capped_wce_config(Budget::unlimited())).expect("reference");
    trace::disable();
    let (_, counters) = trace::snapshot();
    trace::reset();
    let counter = |name: &str| counters.iter().find(|c| c.0 == name).map_or(0, |c| c.1);
    assert!(counter("cert_degraded") > 0, "the cap never bound");
    assert!(counter("cert_bank_rejects") > 0, "the bank never rejected");
    assert!(
        !reference
            .certificate
            .expect("WCE flows certify")
            .status
            .is_certified(),
        "degraded accepts degrade the final certificate"
    );

    let interrupted = cancel_resume_property("ksa12 capped", &original, 8, capped_wce_config);
    assert!(
        interrupted.iter().any(|cp| !cp.wce_bank.is_empty()),
        "no interrupted run carried a bank — the sweep is vacuous"
    );
}

#[test]
fn wce_flow_with_starved_sat_budget_completes_degraded() {
    let _guard = lock();
    faults::disarm();
    let original = arith::ripple_carry_adder(3);
    let config = FlowConfig {
        metric: ErrorMetric::Wce,
        threshold: 2.0,
        seed: 5,
        max_iterations: 16,
        budget: Budget::unlimited().with_sat_propagations(0),
        ..FlowConfig::default()
    };
    let result = run(&original, &config).expect("starved WCE flow");
    assert_eq!(result.outcome, FlowOutcome::Completed);
    assert!(result.checkpoint.is_none());
    let cert = result.certificate.expect("WCE flows always certify");
    match &cert.status {
        CertStatus::Degraded { reason } => {
            assert!(
                reason.contains("SAT budget"),
                "unexpected degradation reason: {reason}"
            );
        }
        CertStatus::Certified => panic!("a zero-propagation budget cannot certify"),
    }
    assert!(!cert.exact);
    // The degraded value is the sampled measurement, not a proven bound.
    assert_eq!(
        Some(cert.value.to_bits()),
        result.measured.value(ErrorMetric::Wce).map(f64::to_bits)
    );

    // The same flow with an unlimited budget certifies for real.
    let unlimited = FlowConfig {
        budget: Budget::unlimited(),
        ..config
    };
    let clean = run(&original, &unlimited).expect("unlimited WCE flow");
    let clean_cert = clean.certificate.expect("certificate");
    assert_eq!(clean_cert.status, CertStatus::Certified);
    assert!(clean_cert.exact);
    assert!(clean_cert.value <= 2.0, "certified WCE exceeds the bound");
}

#[test]
fn exhaust_sat_budget_fault_degrades_instead_of_panicking() {
    let _guard = lock();
    let original = arith::ripple_carry_adder(3);
    faults::set_cancel_token(None);
    faults::arm(FaultPlan {
        fire_at_span: 0,
        action: FaultAction::ExhaustSatBudget,
    });
    let config = FlowConfig {
        metric: ErrorMetric::Wce,
        threshold: 2.0,
        seed: 5,
        max_iterations: 16,
        ..FlowConfig::default()
    };
    let result = run(&original, &config).expect("faulted WCE flow");
    assert!(faults::injected(), "the fault never fired");
    faults::disarm();
    assert_eq!(result.outcome, FlowOutcome::Completed);
    let cert = result.certificate.expect("WCE flows always certify");
    assert!(
        matches!(cert.status, CertStatus::Degraded { .. }),
        "exhausted SAT budget must degrade the certificate"
    );
}

#[test]
fn failing_trace_sink_leaves_the_result_untouched() {
    let _guard = lock();
    faults::disarm();
    let original = arith::kogge_stone_adder(3);
    let reference = run(&original, &er_config(Budget::unlimited())).expect("reference");

    trace::enable_writer(Box::new(FlakySink::new(std::io::sink())));
    faults::arm(FaultPlan {
        fire_at_span: 5,
        action: FaultAction::FailSink,
    });
    let result = run(&original, &er_config(Budget::unlimited())).expect("flaky-sink run");
    assert!(faults::injected(), "the sink fault never fired");
    faults::disarm();
    trace::disable();
    trace::reset();

    assert_bit_identical("flaky sink", &result, &reference);
}
