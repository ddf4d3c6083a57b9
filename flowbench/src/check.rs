//! The benchmark's own output check. It draws its own seeded patterns and
//! evaluates both circuits with the scalar `Aig::evaluate` interpreter, so
//! it shares no code with the flow's bit-parallel simulation kernel.

use alsrac::flow::FlowResult;
use alsrac_aig::Aig;
use alsrac_bench::CERT_WILSON_Z;
use alsrac_metrics::{wilson_interval, ErrorMetric};
use alsrac_rt::Rng;

use crate::workloads::Flow;

/// Patterns the check evaluates per flow. At 65,536 patterns, an ER of
/// 0.0127 or more has a Wilson lower bound above a 0.01 threshold, so the
/// known wal8 (0.0145) and c2670 (0.0161) escapes show.
const CHECK_PATTERNS: usize = 1 << 16;

/// How many standard deviations the flow's own ER measurement may sit from
/// the check's before the flow's reported measurement counts as wrong. Far
/// wider than `CERT_WILSON_Z`: a false alarm here fails the whole run.
const AGREE_Z: f64 = 6.0;

/// What the check found for one flow.
pub struct Verdict {
    /// The flow's output is wrong: it changed the I/O arity, misreports its
    /// own measurement, or breaks a WCE bound its SAT gate should hold.
    pub wrong: Option<String>,
    /// ER only: the check's Wilson lower bound at `CERT_WILSON_Z` exceeds
    /// the threshold, a statistical escape from the error bound.
    pub escape: bool,
    /// The checked error: ER over the check's patterns, or the largest
    /// error distance they hit for WCE.
    pub error: f64,
}

fn as_int(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | u64::from(b) << i)
}

/// Checks one flow's result against its original circuit.
pub fn check(flow: &Flow, result: &FlowResult) -> Verdict {
    let (original, approx) = (&flow.original, &result.approx);
    if approx.num_inputs() != original.num_inputs()
        || approx.num_outputs() != original.num_outputs()
    {
        return Verdict {
            wrong: Some(format!(
                "arity changed: {}x{} -> {}x{}",
                original.num_inputs(),
                original.num_outputs(),
                approx.num_inputs(),
                approx.num_outputs()
            )),
            escape: false,
            error: f64::NAN,
        };
    }
    let (errors, max_distance) = evaluate(original, approx, flow.check_seed);
    let threshold = flow.config.threshold;
    match flow.config.metric {
        ErrorMetric::Wce => {
            let mut wrong = None;
            if max_distance as f64 > threshold {
                wrong = Some(format!(
                    "sampled WCE {max_distance} exceeds bound {threshold}"
                ));
            }
            if let Some(cert) = result
                .certificate
                .as_ref()
                .filter(|c| c.status.is_certified())
            {
                if (max_distance as f64) > cert.value || cert.value > threshold {
                    wrong = Some(format!(
                        "certified WCE {} vs sampled {max_distance}, bound {threshold}",
                        cert.value
                    ));
                }
            }
            Verdict {
                wrong,
                escape: false,
                error: max_distance as f64,
            }
        }
        _ => {
            let n = CHECK_PATTERNS as f64;
            let ours = errors as f64 / n;
            let theirs = result.measured.error_rate;
            let m = result.measured.num_patterns as f64;
            let pooled = (errors as f64 + theirs * m) / (n + m);
            let sigma = (pooled * (1.0 - pooled) * (1.0 / n + 1.0 / m)).sqrt();
            let wrong = ((ours - theirs).abs() > AGREE_Z * sigma + 1.0 / n).then(|| {
                format!("flow reports ER {theirs}, check measures {ours} over {CHECK_PATTERNS}")
            });
            let (low, _) = wilson_interval(errors, CHECK_PATTERNS as u64, CERT_WILSON_Z);
            Verdict {
                wrong,
                escape: low > threshold,
                error: ours,
            }
        }
    }
}

/// Error patterns and the largest error distance over the check patterns.
/// Distances are computed only for circuits whose outputs fit a `u64`.
fn evaluate(original: &Aig, approx: &Aig, seed: u64) -> (u64, u64) {
    let mut rng = Rng::from_seed(seed);
    let decode = original.num_outputs() <= 63;
    let mut inputs = vec![false; original.num_inputs()];
    let (mut errors, mut max_distance) = (0u64, 0u64);
    for _ in 0..CHECK_PATTERNS {
        for chunk in inputs.chunks_mut(64) {
            let word = rng.next_u64();
            for (i, bit) in chunk.iter_mut().enumerate() {
                *bit = word >> i & 1 == 1;
            }
        }
        let exact = original.evaluate(&inputs);
        let approximate = approx.evaluate(&inputs);
        if exact != approximate {
            errors += 1;
            if decode {
                max_distance = max_distance.max(as_int(&exact).abs_diff(as_int(&approximate)));
            }
        }
    }
    (errors, max_distance)
}
