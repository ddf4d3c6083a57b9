//! Trace-report reader: turns a JSONL run trace (`--trace` /
//! `ALSRAC_TRACE`, schema in DESIGN.md "Telemetry") into a human-readable
//! per-phase time breakdown and error-trajectory summary, plus a compact
//! `RUN_SUMMARY.json` for downstream tooling.
//!
//! Three modes:
//!
//! * `report <trace.jsonl> [--summary PATH]` — validate every record
//!   against the schema, print the breakdown, write the summary JSON
//!   (default `RUN_SUMMARY.json` next to the trace).
//! * `report --smoke [PATH]` — run a tiny seeded ALSRAC flow with tracing
//!   into `PATH` (or `ALSRAC_TRACE`, or a tempfile under `target/`), then
//!   validate the trace *against the in-process `FlowResult`*: every
//!   accepted iteration's `est_error` and the final `measured` block must
//!   round-trip bit-for-bit. The CI smoke gate runs exactly this.
//! * `report --overhead` — micro-benchmark the disabled-trace path (an
//!   inert span + counter per work item against the bare kernel) and fail
//!   if the overhead exceeds 2%. The CI gate that keeps tracing free for
//!   untraced runs.
//! * `report --cert PATH` — validate a `BENCH_cert.json` certification
//!   artifact (schema, certified-vs-sampled agreement, WCE bounds).
//! * `report --serve PATH` — validate a `BENCH_serve.json` daemon
//!   throughput artifact (schema, jobs/sec > 0, monotone latency
//!   percentiles, exactly one terminal record per job).
//!
//! Every validation failure is a diagnostic naming the offending record's
//! line number (or JSON path), never a panic backtrace. Exits 0 on
//! success, 1 on any validation or gate failure, 2 on usage errors.

use std::collections::BTreeMap;
use std::process::ExitCode;

use alsrac::flow::{self, FlowConfig};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::bench::{format_ns, Options as BenchOptions, Runner};
use alsrac_rt::json::{Arr, Json, Obj};
use alsrac_rt::{trace, Rng};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(args.get(1).map(String::as_str)),
        Some("--overhead") => overhead(),
        Some("--cert") => match args.get(1) {
            Some(path) => cert_check(path),
            None => usage("--cert needs a path"),
        },
        Some("--serve") => match args.get(1) {
            Some(path) => serve_check(path),
            None => usage("--serve needs a path"),
        },
        Some(path) if !path.starts_with("--") => {
            let summary = match args.get(1).map(String::as_str) {
                Some("--summary") => match args.get(2) {
                    Some(p) => p.clone(),
                    None => return usage("--summary needs a path"),
                },
                Some(other) => return usage(&format!("unknown flag {other:?}")),
                None => sibling_summary_path(path),
            };
            analyze(path, &summary)
        }
        _ => usage("missing trace path"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: report <trace.jsonl> [--summary PATH] | report --smoke [PATH] | \
         report --overhead | report --cert PATH | report --serve PATH"
    );
    ExitCode::from(2)
}

/// `RUN_SUMMARY.json` in the same directory as the trace file.
fn sibling_summary_path(trace_path: &str) -> String {
    match trace_path.rfind('/') {
        Some(i) => format!("{}/RUN_SUMMARY.json", &trace_path[..i]),
        None => "RUN_SUMMARY.json".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// Every counter name the flow may emit into a `totals` record. Schema
/// validation rejects unknown names so a typo in a `trace::add` call site
/// (or a stale reader) fails the smoke gate instead of silently dropping
/// the counter from reports.
const KNOWN_COUNTERS: &[&str] = &[
    "simulations",
    "sim_node_words",
    "sim_incremental_updates",
    "sim_words_saved",
    "influence_words_computed",
    "influence_early_exits",
    "influence_quenched_nodes",
    "influences_computed",
    "influence_cache_hits",
    "lacs_scored",
    "nan_filtered",
    "patterns_simulated",
    "window_extracted",
    "window_nodes",
    "divisors_filtered_by_signature",
    "divisor_sets_harvested",
    "isop_calls",
    "rewrite_cuts_evaluated",
    "refactor_cones_evaluated",
    "overhead_probe",
    "cert_miters_built",
    "cert_sat_queries",
    "cert_wce_searches",
    "cert_candidate_rejects",
    "cert_bank_rejects",
    "cert_degraded",
    "flow_interrupts",
    "checkpoints_written",
    "faults_injected",
    "serve_jobs_submitted",
    "serve_jobs_completed",
    "serve_jobs_interrupted",
    "serve_jobs_cancelled",
    "serve_jobs_failed",
    "serve_lines_rejected",
    "serve_cache_hits",
];

/// The record types a trace may contain, with their required fields (see
/// DESIGN.md "Telemetry" for the authoritative description).
fn validate_record(rec: &Json) -> Result<(), String> {
    let typ = rec
        .get("type")
        .and_then(Json::as_str)
        .ok_or("record has no string \"type\"")?;
    let need_u64 = |key: &str| -> Result<u64, String> {
        rec.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("{typ}: missing or non-integer {key:?}"))
    };
    let need_str = |key: &str| -> Result<&str, String> {
        rec.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("{typ}: missing or non-string {key:?}"))
    };
    let need_f64 = |key: &str| -> Result<f64, String> {
        rec.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("{typ}: missing or non-number {key:?}"))
    };
    let need_phase_ns = || -> Result<(), String> {
        let phases = rec
            .get("phase_ns")
            .and_then(Json::as_obj)
            .ok_or(format!("{typ}: missing \"phase_ns\" object"))?;
        for (name, v) in phases {
            v.as_u64()
                .ok_or(format!("{typ}: phase_ns.{name} is not an integer"))?;
        }
        Ok(())
    };
    // Flow records from a daemon session carry the submitting job's id
    // (1-based; 0 is the reserved untagged value and must never appear).
    let optional_job_id = || -> Result<(), String> {
        match rec.get("job_id") {
            None => Ok(()),
            Some(v) => match v.as_u64() {
                Some(id) if id > 0 => Ok(()),
                _ => Err(format!("{typ}: \"job_id\" is not a positive integer")),
            },
        }
    };
    match typ {
        "process" => {
            need_str("binary")?;
            need_str("scale")?;
            need_u64("seeds")?;
            need_u64("threads")?;
            rec.get("full")
                .and_then(Json::as_bool)
                .ok_or("process: missing bool \"full\"")?;
        }
        "run_start" => {
            optional_job_id()?;
            need_u64("run")?;
            need_str("flow")?;
            need_str("circuit")?;
            need_u64("seed")?;
            need_str("metric")?;
            need_f64("threshold")?;
            for key in ["inputs", "outputs", "ands", "depth"] {
                need_u64(key)?;
            }
        }
        "iteration" => {
            optional_job_id()?;
            need_u64("run")?;
            need_u64("iter")?;
            need_u64("candidates")?;
            need_u64("rounds")?;
            need_phase_ns()?;
            let accepted = rec
                .get("accepted")
                .and_then(Json::as_bool)
                .ok_or("iteration: missing bool \"accepted\"")?;
            if accepted {
                need_str("lac")?;
                need_f64("est_error")?;
                need_u64("ands")?;
                need_u64("depth")?;
                rec.get("gain")
                    .and_then(Json::as_f64)
                    .ok_or("iteration: missing number \"gain\"")?;
            } else {
                need_str("reason")?;
            }
        }
        "run_end" => {
            optional_job_id()?;
            for key in ["run", "iterations", "applied", "ands", "depth", "wall_ns"] {
                need_u64(key)?;
            }
            need_phase_ns()?;
            let measured = rec
                .get("measured")
                .and_then(Json::as_obj)
                .ok_or("run_end: missing \"measured\" object")?;
            measured
                .get("num_patterns")
                .and_then(Json::as_u64)
                .ok_or("run_end: measured.num_patterns missing")?;
            measured
                .get("error_rate")
                .and_then(Json::as_f64)
                .ok_or("run_end: measured.error_rate missing")?;
            for key in ["nmed", "mred", "max_error_distance"] {
                let v = measured
                    .get(key)
                    .ok_or(format!("run_end: measured.{key} missing"))?;
                if !v.is_null() && v.as_f64().is_none() {
                    return Err(format!(
                        "run_end: measured.{key} is neither number nor null"
                    ));
                }
            }
            // Optional SAT certificate (present for WCE / certify flows).
            if let Some(cert) = rec.get("certified") {
                let cert = cert
                    .as_obj()
                    .ok_or("run_end: \"certified\" is not an object")?;
                validate_certified(cert).map_err(|e| format!("run_end: certified.{e}"))?;
            }
            // Optional outcome (absent in pre-budget traces = completed).
            if let Some(outcome) = rec.get("outcome") {
                match outcome.as_str() {
                    Some("completed") => {}
                    Some("interrupted") => {
                        need_str("interrupt_reason")?;
                    }
                    Some(other) => {
                        return Err(format!("run_end: unknown outcome {other:?}"));
                    }
                    None => return Err("run_end: \"outcome\" is not a string".to_string()),
                }
            }
            if let Some(v) = rec.get("resumed_from") {
                v.as_u64()
                    .ok_or("run_end: \"resumed_from\" is not an integer")?;
            }
        }
        "totals" => {
            let spans = rec
                .get("spans")
                .and_then(Json::as_obj)
                .ok_or("totals: missing \"spans\" object")?;
            for (name, span) in spans {
                for key in ["ns", "count", "threads"] {
                    span.get(key)
                        .and_then(Json::as_u64)
                        .ok_or(format!("totals: spans.{name}.{key} missing"))?;
                }
            }
            let counters = rec
                .get("counters")
                .and_then(Json::as_obj)
                .ok_or("totals: missing \"counters\" object")?;
            for (name, v) in counters {
                if !KNOWN_COUNTERS.contains(&name.as_str()) {
                    return Err(format!("totals: unknown counter {name:?}"));
                }
                v.as_u64()
                    .ok_or(format!("totals: counter {name} is not an integer"))?;
            }
        }
        // Daemon protocol records (see DESIGN.md "Service mode"): a
        // captured serve session is a valid trace file.
        "response" => {
            need_str("op")?;
            let ok = rec
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or("response: missing bool \"ok\"")?;
            if !ok {
                need_str("error")?;
            }
        }
        "status" => {
            for key in ["queued", "running", "done"] {
                need_u64(key)?;
            }
        }
        "job_done" => {
            let id = need_u64("job_id")?;
            if id == 0 {
                return Err("job_done: \"job_id\" must be positive".to_string());
            }
            for key in [
                "queue_ns",
                "run_ns",
                "queue_depth",
                "iterations",
                "applied",
                "ands",
            ] {
                need_u64(key)?;
            }
            // Cache replays carry a bool marker; it is omitted when false.
            if let Some(v) = rec.get("cache_hit") {
                v.as_bool().ok_or("job_done: \"cache_hit\" is not a bool")?;
            }
            match need_str("outcome")? {
                "completed" | "cancelled" => {}
                "interrupted" => {
                    need_str("interrupt_reason")?;
                    need_str("checkpoint")?;
                }
                "failed" => {
                    need_str("error")?;
                }
                other => return Err(format!("job_done: unknown outcome {other:?}")),
            }
        }
        "error" => {
            let line = need_u64("line")?;
            if line == 0 {
                return Err("error: \"line\" must be 1-based".to_string());
            }
            need_str("message")?;
        }
        "shutdown" => {
            match need_str("reason")? {
                "shutdown_request" | "input_closed" | "stop_requested" => {}
                other => return Err(format!("shutdown: unknown reason {other:?}")),
            }
            for key in [
                "submitted",
                "completed",
                "interrupted",
                "cancelled",
                "failed",
                "rejected_lines",
            ] {
                need_u64(key)?;
            }
        }
        other => return Err(format!("unknown record type {other:?}")),
    }
    Ok(())
}

/// Validates the fields of a `certified` object (a serialized
/// `CertifiedMeasurement`), shared between `run_end` records and
/// `BENCH_cert.json` entries. Error messages are field-relative; callers
/// prefix the location.
fn validate_certified(cert: &BTreeMap<String, Json>) -> Result<(), String> {
    let get = |key: &str| cert.get(key);
    let metric = get("metric")
        .and_then(Json::as_str)
        .ok_or("metric missing or not a string")?;
    if !["ER", "NMED", "MRED", "WCE"].contains(&metric) {
        return Err(format!("metric {metric:?} unknown"));
    }
    let value = get("value")
        .and_then(Json::as_f64)
        .ok_or("value missing or not a number")?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("value {value} out of range"));
    }
    if metric == "ER" && value > 1.0 {
        return Err(format!("ER value {value} > 1"));
    }
    let exact = get("exact")
        .and_then(Json::as_bool)
        .ok_or("exact missing or not a bool")?;
    let epsilon = get("epsilon")
        .and_then(Json::as_f64)
        .ok_or("epsilon missing or not a number")?;
    let delta = get("delta")
        .and_then(Json::as_f64)
        .ok_or("delta missing or not a number")?;
    // Optional status (absent in pre-budget artifacts = certified). A
    // degraded certificate carries no (ε, δ) guarantee at all — its value
    // is the sampled measurement — so the exactness cross-checks below
    // only apply to certified ones.
    let degraded = match get("status").and_then(Json::as_str) {
        None | Some("certified") => false,
        Some("degraded") => {
            get("status_reason")
                .and_then(Json::as_str)
                .ok_or("degraded certificate has no status_reason")?;
            if exact {
                return Err("degraded certificate cannot claim exactness".to_string());
            }
            true
        }
        Some(other) => return Err(format!("unknown status {other:?}")),
    };
    if exact && (epsilon != 0.0 || delta != 0.0) {
        return Err("exact certificate must have epsilon = delta = 0".to_string());
    }
    if !exact && !degraded && (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) {
        return Err(format!(
            "approximate certificate needs epsilon > 0, delta in (0,1); got ({epsilon}, {delta})"
        ));
    }
    get("sat_queries")
        .and_then(Json::as_u64)
        .ok_or("sat_queries missing or not an integer")?;
    Ok(())
}

/// Whether a `certified` object is a degraded (budget-starved) one.
fn is_degraded(cert: &BTreeMap<String, Json>) -> bool {
    cert.get("status").and_then(Json::as_str) == Some("degraded")
}

/// Reads a trace file, parsing and schema-validating every line. Each
/// returned record carries its 1-based line number so downstream readers
/// can name the offending record in diagnostics.
fn load(path: &str) -> Result<Vec<(usize, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        validate_record(&rec).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        records.push((i + 1, rec));
    }
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(records)
}

/// Field accessors that *report* instead of panicking: a malformed or
/// truncated record that slipped past (or post-dates) `validate_record`
/// becomes a schema-validation error naming the record's line number.
fn req_u64(rec: &Json, path: &str, line: usize, key: &str) -> Result<u64, String> {
    rec.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}:{line}: missing or non-integer {key:?}"))
}

fn req_f64(rec: &Json, path: &str, line: usize, key: &str) -> Result<f64, String> {
    rec.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}:{line}: missing or non-number {key:?}"))
}

fn req_str<'a>(rec: &'a Json, path: &str, line: usize, key: &str) -> Result<&'a str, String> {
    rec.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}:{line}: missing or non-string {key:?}"))
}

// ---------------------------------------------------------------------------
// Default mode: breakdown + RUN_SUMMARY.json
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RunDigest {
    flow: String,
    circuit: String,
    start_ands: u64,
    /// `run_end.ands`; `None` while the trace holds no `run_end` for the
    /// run (cut short before the flow returned).
    end_ands: Option<u64>,
    iterations: u64,
    applied: u64,
    wall_ns: u64,
    error_rate: Option<f64>,
    /// Accepted-iteration estimated errors, in order.
    trajectory: Vec<f64>,
    /// `run_end.outcome` (absent in pre-budget traces = completed).
    outcome: Option<String>,
    /// Why the run was interrupted, when it was.
    interrupt_reason: Option<String>,
    /// Checkpoint iteration this run resumed from, when it did.
    resumed_from: Option<u64>,
    /// Whether the run's certificate was degraded by budget exhaustion.
    degraded_cert: bool,
}

/// One line of the `runs:` listing. A run without a `run_end` record
/// (its trace was cut before the flow returned) has no final AND count
/// and reads `incomplete`.
fn run_line(id: u64, d: &RunDigest) -> String {
    let traj = match (d.trajectory.first(), d.trajectory.last()) {
        (Some(first), Some(last)) => {
            format!(
                "est err {first:.5} -> {last:.5} over {} accepts",
                d.trajectory.len()
            )
        }
        _ => "no accepted iterations".to_string(),
    };
    let mut notes = String::new();
    if let Some(from) = d.resumed_from {
        notes.push_str(&format!("; resumed from iteration {from}"));
    }
    if d.outcome.as_deref() == Some("interrupted") {
        notes.push_str(&format!(
            "; INTERRUPTED ({})",
            d.interrupt_reason.as_deref().unwrap_or("unknown reason")
        ));
    }
    if d.degraded_cert {
        notes.push_str("; degraded certificate");
    }
    format!(
        "  run {id}: {} {} ands {} -> {} ({} iters, {} applied, {}), {}; measured ER {}{notes}",
        d.flow,
        d.circuit,
        d.start_ands,
        d.end_ands
            .map_or("incomplete".to_string(), |ands| ands.to_string()),
        d.iterations,
        d.applied,
        format_ns(d.wall_ns as f64),
        traj,
        d.error_rate
            .map_or("n/a".to_string(), |e| format!("{e:.6}")),
    )
}

fn analyze(path: &str, summary_path: &str) -> ExitCode {
    match try_analyze(path, summary_path) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_analyze(path: &str, summary_path: &str) -> Result<ExitCode, String> {
    let records = load(path)?;

    let mut runs: BTreeMap<u64, RunDigest> = BTreeMap::new();
    let mut phase_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for &(line, ref rec) in &records {
        let typ = req_str(rec, path, line, "type")?;
        match typ {
            "run_start" => {
                let run = req_u64(rec, path, line, "run")?;
                let digest = runs.entry(run).or_default();
                digest.flow = req_str(rec, path, line, "flow")?.to_string();
                digest.circuit = req_str(rec, path, line, "circuit")?.to_string();
                digest.start_ands = req_u64(rec, path, line, "ands")?;
            }
            "iteration" => {
                let run = req_u64(rec, path, line, "run")?;
                let digest = runs.entry(run).or_default();
                if rec.get("accepted").and_then(Json::as_bool) == Some(true) {
                    digest
                        .trajectory
                        .push(req_f64(rec, path, line, "est_error")?);
                }
                if let Some(phases) = rec.get("phase_ns").and_then(Json::as_obj) {
                    for (name, v) in phases {
                        let ns = v.as_u64().ok_or_else(|| {
                            format!("{path}:{line}: phase_ns.{name} is not an integer")
                        })?;
                        *phase_ns.entry(name.clone()).or_insert(0) += ns;
                    }
                }
            }
            "run_end" => {
                let run = req_u64(rec, path, line, "run")?;
                let digest = runs.entry(run).or_default();
                digest.iterations = req_u64(rec, path, line, "iterations")?;
                digest.applied = req_u64(rec, path, line, "applied")?;
                digest.end_ands = Some(req_u64(rec, path, line, "ands")?);
                digest.wall_ns = req_u64(rec, path, line, "wall_ns")?;
                digest.error_rate = rec
                    .get("measured")
                    .and_then(|m| m.get("error_rate"))
                    .and_then(Json::as_f64);
                digest.outcome = rec
                    .get("outcome")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                digest.interrupt_reason = rec
                    .get("interrupt_reason")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                digest.resumed_from = rec.get("resumed_from").and_then(Json::as_u64);
                digest.degraded_cert = rec
                    .get("certified")
                    .and_then(Json::as_obj)
                    .is_some_and(is_degraded);
            }
            "totals" => {
                if let Some(cs) = rec.get("counters").and_then(Json::as_obj) {
                    for (name, v) in cs {
                        let count = v.as_u64().ok_or_else(|| {
                            format!("{path}:{line}: counter {name} is not an integer")
                        })?;
                        *counters.entry(name.clone()).or_insert(0) += count;
                    }
                }
            }
            _ => {}
        }
    }

    println!("{}: {} records, {} runs", path, records.len(), runs.len());
    println!("\nper-phase time (summed over per-iteration phase_ns):");
    let total: u64 = phase_ns.values().sum();
    for (name, &ns) in &phase_ns {
        let share = if total > 0 {
            100.0 * ns as f64 / total as f64
        } else {
            0.0
        };
        println!("  {name:<12} {:>12}  {share:5.1}%", format_ns(ns as f64));
    }
    if !counters.is_empty() {
        println!("\ncounters:");
        for (name, v) in &counters {
            println!("  {name:<24} {v}");
        }
    }
    println!("\nruns:");
    for (id, d) in &runs {
        println!("{}", run_line(*id, d));
    }
    let interrupted = runs
        .values()
        .filter(|d| d.outcome.as_deref() == Some("interrupted"))
        .count();
    let resumed = runs.values().filter(|d| d.resumed_from.is_some()).count();
    let degraded = runs.values().filter(|d| d.degraded_cert).count();
    if interrupted + resumed + degraded > 0 {
        println!(
            "\nbudgets: {interrupted} interrupted run(s), {resumed} resumed run(s), \
             {degraded} degraded certificate(s)"
        );
    }

    let mut run_arr = Arr::new();
    for (id, d) in &runs {
        let mut traj = Arr::new();
        for &e in &d.trajectory {
            traj = traj.f64(e);
        }
        let mut run_obj = Obj::new()
            .u64("run", *id)
            .str("flow", &d.flow)
            .str("circuit", &d.circuit)
            .u64("start_ands", d.start_ands)
            .opt_u64("end_ands", d.end_ands)
            .u64("iterations", d.iterations)
            .u64("applied", d.applied)
            .u64("wall_ns", d.wall_ns)
            .opt_f64("error_rate", d.error_rate)
            .arr("est_error_trajectory", traj);
        if let Some(outcome) = &d.outcome {
            run_obj = run_obj.str("outcome", outcome);
        }
        if let Some(reason) = &d.interrupt_reason {
            run_obj = run_obj.str("interrupt_reason", reason);
        }
        if let Some(from) = d.resumed_from {
            run_obj = run_obj.u64("resumed_from", from);
        }
        if d.degraded_cert {
            run_obj = run_obj.bool("degraded_certificate", true);
        }
        run_arr = run_arr.obj(run_obj);
    }
    let mut phases_obj = Obj::new();
    for (name, &ns) in &phase_ns {
        phases_obj = phases_obj.u64(name, ns);
    }
    let mut counters_obj = Obj::new();
    for (name, &v) in &counters {
        counters_obj = counters_obj.u64(name, v);
    }
    let summary = Obj::new()
        .str("trace", path)
        .u64("records", records.len() as u64)
        .u64("interrupted_runs", interrupted as u64)
        .u64("resumed_runs", resumed as u64)
        .u64("degraded_certificates", degraded as u64)
        .obj("phase_ns", phases_obj)
        .obj("counters", counters_obj)
        .arr("runs", run_arr)
        .finish();
    std::fs::write(summary_path, summary + "\n")
        .map_err(|e| format!("cannot write {summary_path}: {e}"))?;
    println!("\nwrote {summary_path}");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// --smoke: seeded flow, schema + bit-exactness gate
// ---------------------------------------------------------------------------

fn smoke(path_arg: Option<&str>) -> ExitCode {
    let path = path_arg
        .map(str::to_string)
        .or_else(|| std::env::var("ALSRAC_TRACE").ok().filter(|p| !p.is_empty()))
        .unwrap_or_else(|| "target/alsrac_smoke_trace.jsonl".to_string());
    if let Err(e) = trace::enable_file(&path) {
        eprintln!("error: cannot create {path}: {e}");
        return ExitCode::FAILURE;
    }

    // A configuration that reliably accepts LACs (same shape as the flow's
    // own `saves_area_at_loose_threshold` test) — a smoke trace with zero
    // accepted iterations would make the bit-exactness check vacuous.
    let exact = alsrac_circuits::arith::kogge_stone_adder(4);
    let config = FlowConfig {
        metric: ErrorMetric::ErrorRate,
        threshold: 0.30,
        seed: 7,
        max_iterations: 120,
        ..FlowConfig::default()
    };
    let result = match flow::run(&exact, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: smoke flow failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    trace::emit_totals();
    trace::disable();
    trace::reset();

    let records = match load(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Cross-check the trace against the in-process result, bit for bit.
    let fail = |msg: String| -> ExitCode {
        eprintln!("error: smoke mismatch: {msg}");
        ExitCode::FAILURE
    };
    let accepted: Vec<(usize, &Json)> = records
        .iter()
        .filter(|(_, r)| {
            r.get("type").and_then(Json::as_str) == Some("iteration")
                && r.get("accepted").and_then(Json::as_bool) == Some(true)
        })
        .map(|&(line, ref r)| (line, r))
        .collect();
    if accepted.is_empty() {
        return fail("no accepted iterations — the bit-exactness check would be vacuous".into());
    }
    if accepted.len() != result.history.len() {
        return fail(format!(
            "{} accepted iteration records vs history of {}",
            accepted.len(),
            result.history.len()
        ));
    }
    for (&(line, rec), hist) in accepted.iter().zip(&result.history) {
        let est = match req_f64(rec, &path, line, "est_error") {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        if est.to_bits() != hist.estimated_error.to_bits() {
            return fail(format!(
                "{path}:{line}: est_error {est:?} != history {:?} (bit-exact check)",
                hist.estimated_error
            ));
        }
        if rec.get("ands").and_then(Json::as_u64) != Some(hist.ands as u64) {
            return fail(format!(
                "{path}:{line}: iteration ands != history ands {}",
                hist.ands
            ));
        }
        if rec.get("rounds").and_then(Json::as_u64) != Some(hist.rounds as u64) {
            return fail(format!(
                "{path}:{line}: iteration rounds != history rounds {}",
                hist.rounds
            ));
        }
    }
    let run_end = records
        .iter()
        .find(|(_, r)| r.get("type").and_then(Json::as_str) == Some("run_end"));
    let Some(&(line, ref run_end)) = run_end else {
        return fail("no run_end record".to_string());
    };
    let Some(measured) = run_end.get("measured") else {
        return fail(format!("{path}:{line}: run_end has no \"measured\""));
    };
    let er = match measured.get("error_rate").and_then(Json::as_f64) {
        Some(v) => v,
        None => return fail(format!("{path}:{line}: measured.error_rate missing")),
    };
    if er.to_bits() != result.measured.error_rate.to_bits() {
        return fail(format!(
            "{path}:{line}: measured.error_rate {er:?} != {:?} (bit-exact check)",
            result.measured.error_rate
        ));
    }
    let checks = [
        ("iterations", result.iterations as u64),
        ("applied", result.applied as u64),
        ("ands", result.approx.num_ands() as u64),
    ];
    for (key, want) in checks {
        if run_end.get(key).and_then(Json::as_u64) != Some(want) {
            return fail(format!("{path}:{line}: run_end.{key} != {want}"));
        }
    }
    if measured.get("num_patterns").and_then(Json::as_u64)
        != Some(result.measured.num_patterns as u64)
    {
        return fail(format!("{path}:{line}: measured.num_patterns mismatch"));
    }
    for (key, want) in [
        ("nmed", result.measured.nmed),
        ("mred", result.measured.mred),
    ] {
        let Some(got) = measured.get(key) else {
            return fail(format!("{path}:{line}: measured.{key} missing"));
        };
        match want {
            Some(w) => {
                if got.as_f64().map(f64::to_bits) != Some(w.to_bits()) {
                    return fail(format!("{path}:{line}: measured.{key} mismatch"));
                }
            }
            None => {
                if !got.is_null() {
                    return fail(format!("{path}:{line}: measured.{key} should be null"));
                }
            }
        }
    }
    println!(
        "smoke OK: {path}: {} records, {} accepted iterations, measured ER {} — \
         all bit-exact against FlowResult",
        records.len(),
        accepted.len(),
        result.measured.error_rate,
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// --cert: BENCH_cert.json validation
// ---------------------------------------------------------------------------

fn cert_check(path: &str) -> ExitCode {
    match try_cert_check(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `BENCH_cert.json` artifact: schema, certificate internal
/// consistency, Wilson-bound agreement between sampled and certified
/// error rates (recomputed, not trusted), and WCE-within-bound claims.
fn try_cert_check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let name = root
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or("missing string \"benchmark\"")?;
    if name != "cert" {
        return Err(format!("benchmark is {name:?}, expected \"cert\""));
    }
    for key in ["threads", "seed"] {
        root.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("missing integer {key:?}"))?;
    }

    let er_entries = root
        .get("er")
        .and_then(Json::as_arr)
        .ok_or("missing \"er\" array")?;
    if er_entries.is_empty() {
        return Err("\"er\" array is empty".to_string());
    }
    for (i, entry) in er_entries.iter().enumerate() {
        let at = |e: String| format!("er[{i}]: {e}");
        let circuit = entry
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string \"circuit\"".into()))?;
        let within = |e: String| format!("er[{i}] ({circuit}): {e}");
        for key in ["inputs", "outputs", "ands_before", "ands_after", "applied"] {
            entry
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| within(format!("missing integer {key:?}")))?;
        }
        let cert = entry
            .get("certified")
            .and_then(Json::as_obj)
            .ok_or_else(|| within("missing \"certified\" object".into()))?;
        validate_certified(cert).map_err(|e| within(format!("certified.{e}")))?;
        let value = cert.get("value").and_then(Json::as_f64).expect("validated");
        if cert.get("metric").and_then(Json::as_str) != Some("ER") {
            return Err(within("certified.metric must be \"ER\"".into()));
        }
        let errors = entry
            .get("sampled_errors")
            .and_then(Json::as_u64)
            .ok_or_else(|| within("missing integer \"sampled_errors\"".into()))?;
        let patterns = entry
            .get("sampled_patterns")
            .and_then(Json::as_u64)
            .filter(|&n| n > 0)
            .ok_or_else(|| within("missing positive \"sampled_patterns\"".into()))?;
        if errors > patterns {
            return Err(within(format!(
                "sampled_errors {errors} > patterns {patterns}"
            )));
        }
        // Recompute the agreement gate instead of trusting the flag: the
        // certified rate must sit inside the Wilson interval around the
        // sampled estimate (widened by ε for approximate certificates).
        let (low, high) =
            alsrac_metrics::wilson_interval(errors, patterns, alsrac_bench::CERT_WILSON_Z);
        let epsilon = cert
            .get("epsilon")
            .and_then(Json::as_f64)
            .expect("validated");
        let (value_low, value_high) = if epsilon > 0.0 {
            (value / (1.0 + epsilon), value * (1.0 + epsilon))
        } else {
            (value, value)
        };
        let agrees = value_high >= low && value_low <= high;
        if !agrees {
            return Err(within(format!(
                "certified rate {value} outside Wilson interval [{low}, {high}] \
                 of {errors}/{patterns} sampled"
            )));
        }
        if entry.get("agreement").and_then(Json::as_bool) != Some(true) {
            return Err(within("\"agreement\" must be true".into()));
        }
    }

    let wce_entries = root
        .get("wce")
        .and_then(Json::as_arr)
        .ok_or("missing \"wce\" array")?;
    if wce_entries.is_empty() {
        return Err("\"wce\" array is empty".to_string());
    }
    for (i, entry) in wce_entries.iter().enumerate() {
        let at = |e: String| format!("wce[{i}]: {e}");
        let circuit = entry
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string \"circuit\"".into()))?;
        let within = |e: String| format!("wce[{i}] ({circuit}): {e}");
        let bound = entry
            .get("bound")
            .and_then(Json::as_u64)
            .ok_or_else(|| within("missing integer \"bound\"".into()))?;
        for key in [
            "ands_before",
            "ands_after",
            "applied",
            "sampled_max_distance",
        ] {
            entry
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| within(format!("missing integer {key:?}")))?;
        }
        let cert = entry
            .get("certified")
            .and_then(Json::as_obj)
            .ok_or_else(|| within("missing \"certified\" object".into()))?;
        validate_certified(cert).map_err(|e| within(format!("certified.{e}")))?;
        if cert.get("metric").and_then(Json::as_str) != Some("WCE") {
            return Err(within("certified.metric must be \"WCE\"".into()));
        }
        if is_degraded(cert) {
            // A budget-starved certificate's value is the sampled
            // measurement, not a proven maximum — none of the exactness
            // cross-checks below apply.
            continue;
        }
        if cert.get("exact").and_then(Json::as_bool) != Some(true) {
            return Err(within("non-degraded WCE certificates must be exact".into()));
        }
        let value = cert.get("value").and_then(Json::as_f64).expect("validated");
        if value > bound as f64 {
            return Err(within(format!(
                "certified WCE {value} exceeds the configured bound {bound}"
            )));
        }
        let sampled = entry
            .get("sampled_max_distance")
            .and_then(Json::as_u64)
            .expect("checked above");
        if (sampled as f64) > value {
            return Err(within(format!(
                "sampled max distance {sampled} exceeds the certified maximum {value} \
                 — the certificate cannot be exact"
            )));
        }
        if entry.get("within_bound").and_then(Json::as_bool) != Some(true) {
            return Err(within("\"within_bound\" must be true".into()));
        }
    }

    println!(
        "cert OK: {path}: {} ER certificates (all inside the Wilson interval), \
         {} WCE certificates (all within their bounds)",
        er_entries.len(),
        wce_entries.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// --serve: BENCH_serve.json validation
// ---------------------------------------------------------------------------

fn serve_check(path: &str) -> ExitCode {
    match try_serve_check(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `BENCH_serve.json` daemon throughput artifact: schema,
/// totals that add up, a positive jobs/sec (recomputed, not trusted),
/// monotone latency percentiles, and exactly one terminal record per
/// submitted job.
fn try_serve_check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let name = root
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or("missing string \"benchmark\"")?;
    if name != "serve" {
        return Err(format!("benchmark is {name:?}, expected \"serve\""));
    }
    root.get("smoke")
        .and_then(Json::as_bool)
        .ok_or("missing bool \"smoke\"")?;
    let int = |key: &str| -> Result<u64, String> {
        root.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("missing integer {key:?}"))
    };
    let threads = int("threads")?;
    let workers = int("workers")?;
    if threads == 0 || workers == 0 {
        return Err("threads and workers must be positive".to_string());
    }
    let jobs = int("jobs")?;
    if jobs == 0 {
        return Err("an artifact with zero jobs is vacuous".to_string());
    }
    let completed = int("completed")?;
    let settled = completed + int("interrupted")? + int("cancelled")? + int("failed")?;
    if settled != jobs {
        return Err(format!(
            "outcome totals sum to {settled}, but {jobs} jobs were submitted"
        ));
    }
    int("rejected_lines")?;
    let wall_ns = int("wall_ns")?;
    if wall_ns == 0 {
        return Err("wall_ns must be positive".to_string());
    }

    // Recompute the throughput instead of trusting the field.
    let jobs_per_sec = root
        .get("jobs_per_sec")
        .and_then(Json::as_f64)
        .ok_or("missing number \"jobs_per_sec\"")?;
    if jobs_per_sec.is_nan() || jobs_per_sec <= 0.0 {
        return Err(format!("jobs_per_sec must be positive, got {jobs_per_sec}"));
    }
    let recomputed = jobs as f64 / (wall_ns as f64 / 1e9);
    if (jobs_per_sec - recomputed).abs() > recomputed * 1e-6 {
        return Err(format!(
            "jobs_per_sec {jobs_per_sec} does not match {jobs} jobs over {wall_ns} ns \
             (expected {recomputed})"
        ));
    }

    let latency = root
        .get("latency_ns")
        .and_then(Json::as_obj)
        .ok_or("missing \"latency_ns\" object")?;
    let lat = |key: &str| -> Result<u64, String> {
        latency
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("latency_ns.{key} missing or not an integer"))
    };
    let (p50, p95, max) = (lat("p50")?, lat("p95")?, lat("max")?);
    if !(p50 <= p95 && p95 <= max) {
        return Err(format!(
            "latency percentiles must be monotone: p50 {p50} <= p95 {p95} <= max {max}"
        ));
    }

    let depth = root
        .get("queue_depth")
        .and_then(Json::as_obj)
        .ok_or("missing \"queue_depth\" object")?;
    let depth_max = depth
        .get("max")
        .and_then(Json::as_u64)
        .ok_or("queue_depth.max missing or not an integer")?;
    let depth_mean = depth
        .get("mean")
        .and_then(Json::as_f64)
        .ok_or("queue_depth.mean missing or not a number")?;
    if depth_mean < 0.0 || depth_mean > depth_max as f64 {
        return Err(format!(
            "queue_depth.mean {depth_mean} outside [0, max {depth_max}]"
        ));
    }

    // Exactly one terminal record per job, ids unique and in range.
    let detail = root
        .get("jobs_detail")
        .and_then(Json::as_arr)
        .ok_or("missing \"jobs_detail\" array")?;
    if detail.len() as u64 != jobs {
        return Err(format!(
            "jobs_detail has {} entries for {jobs} jobs — a job's terminal record \
             is missing or duplicated",
            detail.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut detail_completed = 0u64;
    for (i, entry) in detail.iter().enumerate() {
        let at = |e: String| format!("jobs_detail[{i}]: {e}");
        let id = entry
            .get("job_id")
            .and_then(Json::as_u64)
            .filter(|&id| id > 0)
            .ok_or_else(|| at("missing positive integer \"job_id\"".into()))?;
        if id > jobs {
            return Err(at(format!("job_id {id} out of range 1..={jobs}")));
        }
        if !seen.insert(id) {
            return Err(at(format!("job {id} has more than one terminal record")));
        }
        entry
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string \"circuit\"".into()))?;
        let get = |key: &str| -> Result<u64, String> {
            entry
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| at(format!("missing integer {key:?}")))
        };
        let job_latency = get("queue_ns")? + get("run_ns")?;
        if job_latency > max {
            return Err(at(format!(
                "end-to-end latency {job_latency} exceeds the reported max {max}"
            )));
        }
        for key in ["queue_depth", "priority", "iterations", "applied", "ands"] {
            get(key)?;
        }
        match entry.get("outcome").and_then(Json::as_str) {
            Some("completed") => detail_completed += 1,
            Some("interrupted") | Some("cancelled") | Some("failed") => {}
            Some(other) => return Err(at(format!("unknown outcome {other:?}"))),
            None => return Err(at("missing string \"outcome\"".into())),
        }
    }
    if detail_completed != completed {
        return Err(format!(
            "jobs_detail shows {detail_completed} completed jobs, header says {completed}"
        ));
    }

    println!(
        "serve OK: {path}: {jobs} jobs ({completed} completed) at {workers} worker(s), \
         {jobs_per_sec:.3} jobs/s, latency p50 {} / p95 {} / max {}",
        format_ns(p50 as f64),
        format_ns(p95 as f64),
        format_ns(max as f64),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// --overhead: disabled-path cost gate
// ---------------------------------------------------------------------------

/// Maximum tolerated disabled-trace overhead: 2%.
const MAX_OVERHEAD_RATIO: f64 = 1.02;
/// Measurement retries before declaring a regression (single-run medians on
/// shared CI machines are noisy; a genuine regression fails every time).
const OVERHEAD_ATTEMPTS: usize = 5;

/// The work item both kernels share: enough PRNG steps that one inert span
/// and counter per item is a realistic instrumentation density (one span
/// per flow phase, not one per AND gate).
fn kernel(rng: &mut Rng) -> u64 {
    let mut acc = 0u64;
    for _ in 0..512 {
        acc ^= rng.next_u64();
    }
    acc
}

fn overhead() -> ExitCode {
    assert!(
        !trace::is_enabled(),
        "--overhead measures the DISABLED path; unset ALSRAC_TRACE"
    );
    let options = BenchOptions {
        samples: 11,
        warmup_samples: 2,
        target_sample: std::time::Duration::from_millis(10),
    };
    let mut best_ratio = f64::INFINITY;
    for attempt in 1..=OVERHEAD_ATTEMPTS {
        let mut runner = Runner::new(options.clone(), false);
        let mut rng = Rng::from_seed(1);
        let bare = runner
            .bench("kernel (bare)", || {
                std::hint::black_box(kernel(&mut rng));
            })
            .median_ns;
        let mut rng = Rng::from_seed(1);
        let traced = runner
            .bench("kernel + disabled span/counter", || {
                let span = trace::span("overhead_probe");
                std::hint::black_box(kernel(&mut rng));
                trace::add("overhead_probe", 1);
                span.finish();
            })
            .median_ns;
        let ratio = traced / bare.max(1.0);
        best_ratio = best_ratio.min(ratio);
        println!(
            "attempt {attempt}: bare {} traced {} ratio {ratio:.4}",
            format_ns(bare),
            format_ns(traced)
        );
        if ratio <= MAX_OVERHEAD_RATIO {
            println!("overhead OK: disabled-trace ratio {ratio:.4} <= {MAX_OVERHEAD_RATIO:.2}");
            return ExitCode::SUCCESS;
        }
    }
    eprintln!(
        "error: disabled-trace overhead {best_ratio:.4} exceeds {MAX_OVERHEAD_RATIO:.2} \
         after {OVERHEAD_ATTEMPTS} attempts"
    );
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique tempfile under the target directory, cleaned up on drop.
    struct TempTrace(String);

    impl TempTrace {
        fn write(name: &str, content: &str) -> TempTrace {
            let path = std::env::temp_dir()
                .join(format!("report_test_{}_{name}", std::process::id()))
                .to_string_lossy()
                .into_owned();
            std::fs::write(&path, content).expect("write temp trace");
            TempTrace(path)
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    const TOTALS: &str = r#"{"type":"totals","spans":{},"counters":{}}"#;

    #[test]
    fn truncated_json_is_reported_with_its_line_number() {
        let t = TempTrace::write(
            "truncated",
            &format!("{TOTALS}\n{{\"type\":\"run_end\",\"run\":1\n"),
        );
        let err = load(&t.0).expect_err("truncated line must fail");
        assert!(err.contains(":2:"), "no line number: {err}");
        assert!(err.contains("invalid JSON"), "wrong diagnostic: {err}");
    }

    #[test]
    fn schema_violations_name_the_line_and_field() {
        let t = TempTrace::write(
            "schema",
            &format!("{TOTALS}\n{{\"type\":\"iteration\",\"run\":1}}\n"),
        );
        let err = load(&t.0).expect_err("incomplete record must fail");
        assert!(err.contains(":2:"), "no line number: {err}");
        assert!(err.contains("iteration"), "wrong diagnostic: {err}");
    }

    #[test]
    fn unknown_counters_are_rejected() {
        let t = TempTrace::write(
            "counter",
            r#"{"type":"totals","spans":{},"counters":{"cert_sat_quries":1}}"#,
        );
        let err = load(&t.0).expect_err("typoed counter must fail");
        assert!(err.contains("cert_sat_quries"), "wrong diagnostic: {err}");
    }

    #[test]
    fn bank_reject_counter_is_known() {
        let t = TempTrace::write(
            "bank",
            r#"{"type":"totals","spans":{},"counters":{"cert_bank_rejects":3}}"#,
        );
        load(&t.0).expect("cert_bank_rejects is a known counter");
    }

    #[test]
    fn runs_without_run_end_read_incomplete() {
        let mut d = RunDigest {
            flow: "alsrac".to_string(),
            circuit: "rca32".to_string(),
            start_ands: 283,
            ..RunDigest::default()
        };
        let line = run_line(1, &d);
        assert!(line.contains("ands 283 -> incomplete"), "{line}");
        d.end_ands = Some(202);
        let line = run_line(1, &d);
        assert!(line.contains("ands 283 -> 202"), "{line}");
    }

    #[test]
    fn empty_traces_are_an_error_not_a_panic() {
        let t = TempTrace::write("empty", "\n\n");
        assert!(load(&t.0).is_err());
    }

    fn cert_artifact(certified_value: f64) -> String {
        format!(
            r#"{{"benchmark":"cert","threads":1,"seed":1,
"er":[{{"circuit":"rca32","inputs":12,"outputs":7,"ands_before":49,"ands_after":40,
"applied":2,"sampled_errors":100,"sampled_patterns":1000,"agreement":true,
"certified":{{"metric":"ER","value":{certified_value},"exact":true,"epsilon":0,"delta":0,"sat_queries":3}}}}],
"wce":[{{"circuit":"rca32","bound":4,"ands_before":49,"ands_after":40,"applied":2,
"sampled_max_distance":3,"within_bound":true,
"certified":{{"metric":"WCE","value":3,"exact":true,"epsilon":0,"delta":0,"sat_queries":7}}}}]}}"#
        )
    }

    /// A minimal schema-complete run_end record with extra fields spliced
    /// in before the closing brace.
    fn run_end_with(extra: &str) -> String {
        format!(
            r#"{{"type":"run_end","run":1,"iterations":5,"applied":2,"ands":30,"depth":9,
"wall_ns":1000,"phase_ns":{{}},
"measured":{{"num_patterns":4096,"error_rate":0.01,"nmed":null,"mred":null,"max_error_distance":null}}{extra}}}"#
        )
    }

    #[test]
    fn interrupted_run_end_records_validate() {
        let rec = run_end_with(r#","outcome":"interrupted","interrupt_reason":"cancelled""#);
        validate_record(&Json::parse(&rec).unwrap()).expect("interrupted run_end must validate");
        let rec = run_end_with(r#","outcome":"completed","resumed_from":3"#);
        validate_record(&Json::parse(&rec).unwrap()).expect("resumed run_end must validate");
    }

    #[test]
    fn interrupted_run_end_needs_a_reason() {
        let rec = run_end_with(r#","outcome":"interrupted""#);
        let err = validate_record(&Json::parse(&rec).unwrap()).expect_err("reason required");
        assert!(err.contains("interrupt_reason"), "wrong diagnostic: {err}");
        let rec = run_end_with(r#","outcome":"gave_up""#);
        let err = validate_record(&Json::parse(&rec).unwrap()).expect_err("unknown outcome");
        assert!(err.contains("gave_up"), "wrong diagnostic: {err}");
    }

    #[test]
    fn degraded_certificates_validate_without_epsilon_delta() {
        let cert = r#"{"metric":"WCE","value":3,"exact":false,"epsilon":0,"delta":0,
"sat_queries":7,"status":"degraded","status_reason":"SAT budget exhausted"}"#;
        let cert = Json::parse(cert).unwrap();
        validate_certified(cert.as_obj().unwrap()).expect("degraded cert must validate");
        assert!(is_degraded(cert.as_obj().unwrap()));
    }

    #[test]
    fn degraded_certificates_need_a_reason_and_cannot_be_exact() {
        let no_reason = r#"{"metric":"ER","value":0.1,"exact":false,"epsilon":0,"delta":0,
"sat_queries":1,"status":"degraded"}"#;
        let err = validate_certified(Json::parse(no_reason).unwrap().as_obj().unwrap())
            .expect_err("reason required");
        assert!(err.contains("status_reason"), "wrong diagnostic: {err}");
        let exact = r#"{"metric":"ER","value":0.1,"exact":true,"epsilon":0,"delta":0,
"sat_queries":1,"status":"degraded","status_reason":"budget"}"#;
        let err = validate_certified(Json::parse(exact).unwrap().as_obj().unwrap())
            .expect_err("exact degraded must fail");
        assert!(err.contains("exactness"), "wrong diagnostic: {err}");
    }

    #[test]
    fn degraded_wce_cert_entries_skip_the_exactness_gate() {
        // Same artifact as cert_artifact but the WCE certificate is
        // degraded and its value exceeds the bound — allowed, because a
        // degraded value is a sampled measurement, not a proven maximum.
        let artifact = r#"{"benchmark":"cert","threads":1,"seed":1,
"er":[{"circuit":"rca32","inputs":12,"outputs":7,"ands_before":49,"ands_after":40,
"applied":2,"sampled_errors":100,"sampled_patterns":1000,"agreement":true,
"certified":{"metric":"ER","value":0.1,"exact":true,"epsilon":0,"delta":0,"sat_queries":3}}],
"wce":[{"circuit":"rca32","bound":4,"ands_before":49,"ands_after":40,"applied":2,
"sampled_max_distance":6,"within_bound":false,
"certified":{"metric":"WCE","value":6,"exact":false,"epsilon":0,"delta":0,"sat_queries":7,
"status":"degraded","status_reason":"SAT budget exhausted during WCE binary search"}}]}"#;
        let t = TempTrace::write("cert_degraded", artifact);
        try_cert_check(&t.0).expect("degraded WCE entry must validate");
    }

    /// A minimal valid serve artifact; `patch` rewrites one substring to
    /// produce the invalid variants.
    fn serve_artifact(patch: &[(&str, &str)]) -> String {
        let mut s = r#"{"benchmark":"serve","smoke":true,"threads":1,"workers":2,"jobs":2,
"completed":2,"interrupted":0,"cancelled":0,"failed":0,"rejected_lines":1,
"wall_ns":1000000000,"jobs_per_sec":2,
"latency_ns":{"p50":400000000,"p95":900000000,"max":900000000},
"queue_depth":{"max":1,"mean":0.5},
"jobs_detail":[
{"job_id":1,"circuit":"alu4","priority":0,"outcome":"completed","queue_ns":1000,
"run_ns":399999000,"queue_depth":1,"iterations":5,"applied":3,"ands":80},
{"job_id":2,"circuit":"mtp8","priority":0,"outcome":"completed","queue_ns":2000,
"run_ns":899998000,"queue_depth":0,"iterations":5,"applied":2,"ands":70}]}"#
            .to_string();
        for (from, to) in patch {
            assert!(s.contains(from), "patch target {from:?} not in artifact");
            s = s.replace(from, to);
        }
        s
    }

    #[test]
    fn serve_artifacts_validate() {
        let t = TempTrace::write("serve_ok", &serve_artifact(&[]));
        try_serve_check(&t.0).expect("valid serve artifact must pass");
    }

    #[test]
    fn serve_artifacts_with_inconsistent_totals_fail() {
        let t = TempTrace::write(
            "serve_totals",
            &serve_artifact(&[("\"completed\":2", "\"completed\":1")]),
        );
        let err = try_serve_check(&t.0).expect_err("totals must add up");
        assert!(err.contains("sum to"), "wrong diagnostic: {err}");
    }

    #[test]
    fn serve_artifacts_with_nonmonotone_latency_fail() {
        let t = TempTrace::write(
            "serve_latency",
            &serve_artifact(&[("\"p50\":400000000", "\"p50\":950000000")]),
        );
        let err = try_serve_check(&t.0).expect_err("p50 > p95 must fail");
        assert!(err.contains("monotone"), "wrong diagnostic: {err}");
    }

    #[test]
    fn serve_artifacts_with_duplicate_terminal_records_fail() {
        let t = TempTrace::write(
            "serve_dup",
            &serve_artifact(&[("\"job_id\":2", "\"job_id\":1")]),
        );
        let err = try_serve_check(&t.0).expect_err("duplicate job id must fail");
        assert!(
            err.contains("more than one terminal record"),
            "wrong diagnostic: {err}"
        );
    }

    #[test]
    fn serve_artifacts_with_fabricated_throughput_fail() {
        let t = TempTrace::write(
            "serve_rate",
            &serve_artifact(&[("\"jobs_per_sec\":2", "\"jobs_per_sec\":1000")]),
        );
        let err = try_serve_check(&t.0).expect_err("jobs_per_sec is recomputed");
        assert!(err.contains("does not match"), "wrong diagnostic: {err}");
    }

    #[test]
    fn daemon_records_validate_as_trace_records() {
        for rec in [
            r#"{"type":"response","op":"submit","ok":true,"job_id":1}"#,
            r#"{"type":"response","op":"cancel","ok":false,"error":"unknown job"}"#,
            r#"{"type":"status","queued":1,"running":2,"done":3}"#,
            r#"{"type":"job_done","job_id":1,"outcome":"completed","queue_ns":5,
"run_ns":10,"queue_depth":0,"iterations":3,"applied":1,"ands":40}"#,
            r#"{"type":"job_done","job_id":3,"outcome":"completed","cache_hit":true,
"queue_ns":5,"run_ns":0,"queue_depth":0,"iterations":3,"applied":1,"ands":40}"#,
            r#"{"type":"job_done","job_id":2,"outcome":"interrupted",
"interrupt_reason":"cancelled","checkpoint":"{}","queue_ns":5,"run_ns":10,
"queue_depth":0,"iterations":3,"applied":1,"ands":40}"#,
            r#"{"type":"error","line":4,"message":"expected a value"}"#,
            r#"{"type":"shutdown","reason":"input_closed","submitted":1,"completed":1,
"interrupted":0,"cancelled":0,"failed":0,"rejected_lines":0}"#,
        ] {
            validate_record(&Json::parse(rec).unwrap())
                .unwrap_or_else(|e| panic!("{rec} must validate: {e}"));
        }
    }

    #[test]
    fn daemon_records_with_schema_violations_fail() {
        for (rec, expect) in [
            (
                r#"{"type":"job_done","job_id":0,"outcome":"completed","queue_ns":5,
"run_ns":10,"queue_depth":0,"iterations":3,"applied":1,"ands":40}"#,
                "positive",
            ),
            (
                r#"{"type":"job_done","job_id":1,"outcome":"vanished","queue_ns":5,
"run_ns":10,"queue_depth":0,"iterations":3,"applied":1,"ands":40}"#,
                "vanished",
            ),
            (r#"{"type":"error","line":0,"message":"m"}"#, "1-based"),
            (
                r#"{"type":"shutdown","reason":"crash","submitted":0,"completed":0,
"interrupted":0,"cancelled":0,"failed":0,"rejected_lines":0}"#,
                "crash",
            ),
        ] {
            let err = validate_record(&Json::parse(rec).unwrap())
                .expect_err("schema violation must fail");
            assert!(err.contains(expect), "wrong diagnostic for {rec}: {err}");
        }
    }

    #[test]
    fn job_tagged_flow_records_validate_but_job_id_zero_fails() {
        let rec = run_end_with(r#","job_id":3"#);
        validate_record(&Json::parse(&rec).unwrap()).expect("tagged run_end must validate");
        let rec = run_end_with(r#","job_id":0"#);
        let err = validate_record(&Json::parse(&rec).unwrap()).expect_err("zero tag must fail");
        assert!(err.contains("job_id"), "wrong diagnostic: {err}");
    }

    #[test]
    fn cert_artifacts_inside_the_wilson_interval_pass() {
        let t = TempTrace::write("cert_ok", &cert_artifact(0.1));
        try_cert_check(&t.0).expect("agreeing artifact must validate");
    }

    #[test]
    fn cert_artifacts_outside_the_wilson_interval_fail() {
        let t = TempTrace::write("cert_bad", &cert_artifact(0.9));
        let err = try_cert_check(&t.0).expect_err("disagreement must fail");
        assert!(err.contains("Wilson"), "wrong diagnostic: {err}");
        assert!(err.contains("rca32"), "must name the circuit: {err}");
    }
}
