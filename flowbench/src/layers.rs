//! Per-layer attribution, measured from outside the program: the span and
//! counter totals and `iteration` records the flow already emits (captured
//! in memory), plus the benchmark's own timing of public `alsrac_synth`
//! passes.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alsrac_aig::Aig;
use alsrac_circuits::aiger;
use alsrac_rt::json::Json;
use alsrac_rt::trace;
use alsrac_synth::{balance, optimize, refactor, rewrite, sweep, RefactorConfig, RewriteConfig};

/// The layers, named after the modules, with the end-to-end metric and
/// workload each layer's metrics should move.
pub const LAYERS: &[(&str, &str)] = &[
    ("circuits", "setup_s, all workloads"),
    (
        "flow",
        "flow.unconverged_share and wall_s on paper_accept; area_ratio must hold",
    ),
    (
        "sim",
        "wall_s and peak_rss_mb on scale_wal32; no more than their <1% share elsewhere",
    ),
    ("lac", "wall_s on paper_reject; flow_s.p50 on paper_accept"),
    (
        "estimate",
        "wall_s on scale_wal32 and wce_gate, at most its 1-9% share",
    ),
    (
        "certify",
        "wall_s on wce_gate; zero work on the other three",
    ),
    (
        "synth",
        "wall_s on paper_accept and scale_wal32; unchanged on paper_reject",
    ),
    ("metrics", "wall_s, below 1% everywhere"),
    (
        "check",
        "check.fail_share: the benchmark's own output check",
    ),
];

/// A shared in-memory trace sink.
#[derive(Clone, Default)]
struct Buffer(Arc<Mutex<Vec<u8>>>);

impl Write for Buffer {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Enables tracing into memory with fresh totals until [`Capture::finish`].
pub struct Capture(Buffer);

/// Everything one traced pass over a workload left behind.
pub struct Traced {
    /// Span path -> (total ns, count).
    spans: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
    decisions: Decisions,
}

/// Accept/reject accounting from the flow's `iteration` records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Decisions {
    iterations: u64,
    accepts: u64,
    zero_gain_accepts: u64,
    useful_accepts: u64,
    no_candidates: u64,
    over_budget: u64,
    candidates: u64,
}

impl Capture {
    pub fn start() -> Capture {
        trace::reset();
        let buffer = Buffer::default();
        trace::enable_writer(Box::new(buffer.clone()));
        Capture(buffer)
    }

    pub fn finish(self) -> Result<Traced, String> {
        trace::disable();
        let (spans, counters) = trace::snapshot();
        trace::reset();
        let bytes = std::mem::take(&mut *self.0 .0.lock().expect("trace buffer poisoned"));
        let text = String::from_utf8(bytes).map_err(|e| format!("trace is not UTF-8: {e}"))?;
        Ok(Traced {
            spans: spans
                .into_iter()
                .map(|s| (s.name, (s.ns, s.count)))
                .collect(),
            counters: counters.into_iter().collect(),
            decisions: decisions(&text)?,
        })
    }
}

fn decisions(text: &str) -> Result<Decisions, String> {
    let mut d = Decisions::default();
    // ANDs of each run's circuit before its next accept.
    let mut ands: BTreeMap<u64, u64> = BTreeMap::new();
    for line in text.lines() {
        let record = Json::parse(line).map_err(|e| format!("trace record: {e}"))?;
        let field = |key: &str| {
            record
                .get(key)
                .ok_or_else(|| format!("trace record without {key}: {line}"))
        };
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("trace field {key} is not a number: {line}"))
        };
        let run = num("run")? as u64;
        match field("type")?.as_str() {
            Some("run_start") => {
                ands.insert(run, num("ands")? as u64);
            }
            Some("iteration") => {
                d.iterations += 1;
                d.candidates += num("candidates")? as u64;
                if field("accepted")?.as_bool() == Some(true) {
                    d.accepts += 1;
                    if num("gain")? == 0.0 {
                        d.zero_gain_accepts += 1;
                    }
                    let after = num("ands")? as u64;
                    let before = ands.insert(run, after).unwrap_or(u64::MAX);
                    if after < before {
                        d.useful_accepts += 1;
                    }
                } else {
                    match field("reason")?.as_str() {
                        Some("no_candidates") => d.no_candidates += 1,
                        Some("over_budget") => d.over_budget += 1,
                        other => return Err(format!("unknown reject reason {other:?}")),
                    }
                }
            }
            _ => {}
        }
    }
    Ok(d)
}

impl Traced {
    fn span_s(&self, path: &str) -> f64 {
        self.spans.get(path).map_or(0, |s| s.0) as f64 * 1e-9
    }

    fn span_count(&self, path: &str) -> u64 {
        self.spans.get(path).map_or(0, |s| s.1)
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Span time minus the time of its direct child spans.
    fn self_s(&self, path: &str) -> f64 {
        let prefix = format!("{path}/");
        let children: f64 = self
            .spans
            .keys()
            .filter(|p| {
                p.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|p| self.span_s(p))
            .sum();
        self.span_s(path) - children
    }

    /// Everything that must repeat exactly between traced passes: counter
    /// totals, span counts and the accept/reject accounting.
    pub fn work(&self) -> String {
        let counts: BTreeMap<&String, u64> = self.spans.iter().map(|(p, s)| (p, s.1)).collect();
        format!("{:?} {counts:?} {:?}", self.counters, self.decisions)
    }

    /// Self time per layer, for the layer-tree summary.
    pub fn layer_self_s(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("flow", self.self_s("flow")),
            (
                "sim",
                self.self_s("flow/care_sim") + self.self_s("flow/sim_update"),
            ),
            (
                "lac",
                self.self_s("flow/lac_gen") + self.self_s("flow/apply"),
            ),
            ("estimate", self.self_s("flow/estimate")),
            (
                "certify",
                self.span_s("flow/apply/certify") + self.span_s("flow/certify"),
            ),
            ("synth", self.span_s("flow/optimize")),
            ("metrics", self.span_s("flow/measure")),
        ]
    }

    /// The per-layer metrics this pass yields, as (name, value, unit).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let d = &self.decisions;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let lac_gen_s = self.span_s("flow/lac_gen");
        let gate_calls = self.span_count("flow/apply/certify") as f64;
        let words = self.counter("sim_node_words") as f64;
        let saved = self.counter("sim_words_saved") as f64;
        let values = [
            ("flow.iterations", d.iterations as f64),
            ("flow.accepts", d.accepts as f64),
            ("flow.zero_gain_accepts", d.zero_gain_accepts as f64),
            ("flow.rejects_no_candidates", d.no_candidates as f64),
            ("flow.rejects_over_budget", d.over_budget as f64),
            (
                "flow.useful_accept_ratio",
                ratio(d.useful_accepts as f64, d.accepts as f64),
            ),
            ("flow.self_s", self.self_s("flow")),
            ("sim.care_s", self.span_s("flow/care_sim")),
            ("sim.update_s", self.span_s("flow/sim_update")),
            ("sim.node_words", words),
            ("sim.words_saved_ratio", ratio(saved, saved + words)),
            ("lac.gen_s", lac_gen_s),
            (
                "lac.apply_s",
                self.span_s("flow/apply") - self.span_s("flow/apply/certify"),
            ),
            ("lac.candidates", d.candidates as f64),
            (
                "lac.candidates_per_s",
                ratio(d.candidates as f64, lac_gen_s),
            ),
            ("lac.window_nodes", self.counter("window_nodes") as f64),
            (
                "lac.sets_filtered",
                self.counter("divisors_filtered_by_signature") as f64,
            ),
            (
                "lac.accept_ratio",
                ratio(d.accepts as f64, d.candidates as f64),
            ),
            ("estimate.s", self.span_s("flow/estimate")),
            ("estimate.lacs_scored", self.counter("lacs_scored") as f64),
            (
                "estimate.influence_words",
                self.counter("influence_words_computed") as f64,
            ),
            (
                "estimate.quenched_nodes",
                self.counter("influence_quenched_nodes") as f64,
            ),
            ("certify.gate_s", self.span_s("flow/apply/certify")),
            ("certify.final_s", self.span_s("flow/certify")),
            (
                "certify.miters_built",
                self.counter("cert_miters_built") as f64,
            ),
            (
                "certify.sat_queries",
                self.counter("cert_sat_queries") as f64,
            ),
            (
                "certify.gate_reject_ratio",
                ratio(self.counter("cert_candidate_rejects") as f64, gate_calls),
            ),
            ("synth.optimize_s", self.span_s("flow/optimize")),
            (
                "synth.optimize_calls",
                self.span_count("flow/optimize") as f64,
            ),
            ("metrics.measure_s", self.span_s("flow/measure")),
            (
                "metrics.patterns_simulated",
                self.counter("patterns_simulated") as f64,
            ),
        ];
        values
            .iter()
            .map(|&(name, value)| (name, value, unit(name)))
            .collect()
    }
}

/// The unit of a per-layer metric, from its name's suffix.
fn unit(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") || name.ends_with(".s") {
        "s"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

/// Times the public `alsrac_synth` passes in `optimize`'s order
/// (`sweep`, then `resyn2_lite`'s balance/rewrite/refactor rounds).
#[derive(Default)]
pub struct SynthProbe {
    sweep_s: f64,
    balance_s: f64,
    rewrite_s: f64,
    refactor_s: f64,
    rewrite_removed: u64,
    refactor_removed: u64,
    /// `optimize` on each case's input circuit.
    first_s: f64,
    /// `optimize` on that call's own result, where it has nothing to do.
    fixpoint_s: f64,
}

fn timed(aig: &Aig, pass: impl FnOnce(&Aig) -> Aig) -> (Aig, f64) {
    let start = Instant::now();
    let out = pass(aig);
    (out, start.elapsed().as_secs_f64())
}

impl SynthProbe {
    /// Runs `sweep; resyn2_lite` pass by pass on `aig`, returning the
    /// result and the ANDs after each pass.
    fn passes(&mut self, aig: &Aig) -> (Aig, String) {
        let rw = RewriteConfig::default();
        let rwz = RewriteConfig {
            zero_gain: true,
            ..RewriteConfig::default()
        };
        let rf = RefactorConfig::default();
        let rfz = RefactorConfig {
            zero_gain: true,
            ..RefactorConfig::default()
        };
        let (mut g, sweep_s) = timed(aig, sweep);
        self.sweep_s += sweep_s;
        let mut trail = format!("{} sweep {}", aig.num_ands(), g.num_ands());
        let mut step = |g: &mut Aig, kind: &str, pass: &dyn Fn(&Aig) -> Aig| {
            let before = g.num_ands() as u64;
            let (out, s) = timed(g, pass);
            let removed = before.saturating_sub(out.num_ands() as u64);
            match kind {
                "b" => self.balance_s += s,
                "rw" => {
                    self.rewrite_s += s;
                    self.rewrite_removed += removed;
                }
                _ => {
                    self.refactor_s += s;
                    self.refactor_removed += removed;
                }
            }
            trail.push_str(&format!(" {kind} {}", out.num_ands()));
            *g = out;
        };
        step(&mut g, "b", &balance);
        step(&mut g, "rw", &|g| rewrite(g, &rw));
        step(&mut g, "rf", &|g| refactor(g, &rf));
        step(&mut g, "b", &balance);
        step(&mut g, "rw", &|g| rewrite(g, &rw));
        step(&mut g, "rw", &|g| rewrite(g, &rwz));
        step(&mut g, "b", &balance);
        step(&mut g, "rf", &|g| refactor(g, &rfz));
        step(&mut g, "rw", &|g| rewrite(g, &rwz));
        step(&mut g, "b", &balance);
        (g, trail)
    }

    /// Probes one case: its input and output circuits pass by pass, and
    /// `optimize` on the input and then on its own result. Returns the AND
    /// trails of the input and the output circuit, and errors if the passes
    /// do not reproduce `optimize`.
    pub fn case(&mut self, input: &Aig, output: &Aig) -> Result<[String; 2], String> {
        let (by_pass, input_trail) = self.passes(input);
        let (_, output_trail) = self.passes(output);
        let (optimized, first_s) = timed(input, optimize);
        if aiger::write_binary(&by_pass) != aiger::write_binary(&optimized) {
            return Err(format!("{}: the passes differ from optimize", input.name()));
        }
        let (_, fixpoint_s) = timed(&optimized, optimize);
        self.first_s += first_s;
        self.fixpoint_s += fixpoint_s;
        Ok([input_trail, output_trail])
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        [
            ("synth.sweep_s", self.sweep_s),
            ("synth.balance_s", self.balance_s),
            ("synth.rewrite_s", self.rewrite_s),
            ("synth.refactor_s", self.refactor_s),
            ("synth.rewrite_removed", self.rewrite_removed as f64),
            ("synth.refactor_removed", self.refactor_removed as f64),
            ("synth.fixpoint_s", self.fixpoint_s),
            ("synth.fixpoint_ratio", self.fixpoint_s / self.first_s),
        ]
        .iter()
        .map(|&(name, value)| (name, value, unit(name)))
        .collect()
    }
}
