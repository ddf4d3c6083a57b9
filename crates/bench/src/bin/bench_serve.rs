//! Daemon throughput benchmark and the `serve-smoke` CI gate.
//!
//! Default mode saturates an in-process daemon ([`alsrac::serve`]) with a
//! mixed workload — one small exact-certification job per Test-scale
//! circuit plus windowed 10k+-AND multiplier jobs at a higher priority —
//! and writes `BENCH_serve.json`: jobs/sec, p50/p95/max end-to-end
//! latency, queue-depth statistics, and a per-job detail array. The
//! committed artifact is validated in CI by `report --serve`.
//!
//! `--smoke` runs the CI gate instead:
//!
//! 1. three concurrent jobs whose streamed `run_end` records must be
//!    bit-identical — modulo run ids and wall-clock fields — to a direct
//!    `flow::run` with the same configuration and seed,
//! 2. a malformed request line that must produce a structured `error`
//!    response (with its 1-based line number) without killing the daemon,
//! 3. a `cancel` of an in-flight large job that must yield an
//!    `interrupted` terminal record carrying a checkpoint that
//!    `flow::resume` accepts and completes from.
//!
//! The smoke also writes its (small) artifact so `report --serve` gets
//! exercised on a fresh file in CI, not just on the committed one.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alsrac::checkpoint::Checkpoint;
use alsrac::flow::{self, FlowConfig};
use alsrac::serve::{
    self, request_pipe, wait_for_record, Catalog, CircuitSource, LineCollector, Request,
    RequestPipe, ServeOptions, ServeSummary, SubmitRequest,
};
use alsrac_aig::Aig;
use alsrac_circuits::catalog::{self, Scale};
use alsrac_circuits::{aiger, blif};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::json::{Arr, Json, Obj};
use alsrac_rt::{pool, trace};

/// Fields of a flow record that legitimately differ between a daemon job
/// and a direct run (run ids, wall-clock timings, the job tag itself).
const VOLATILE: [&str; 4] = ["run", "wall_ns", "phase_ns", "job_id"];

/// RNG seed of the small certification jobs in the saturation workload.
const SEED: u64 = 42;

fn resolver() -> Box<serve::Resolver> {
    Box::new(|source: &CircuitSource| match source {
        CircuitSource::Named { name, scale } => {
            let scale = match scale.as_str() {
                "paper" => Scale::Paper,
                _ => Scale::Test,
            };
            catalog::by_name(name, scale).ok_or_else(|| format!("unknown benchmark {name:?}"))
        }
        CircuitSource::Blif(text) => blif::parse(text).map_err(|e| e.to_string()),
        CircuitSource::Aag(text) => aiger::parse_ascii(text).map_err(|e| e.to_string()),
    })
}

fn resolve(source: &CircuitSource) -> Aig {
    resolver()(source).expect("bundled circuit resolves")
}

/// An in-process daemon session: requests go in through `pipe`, every
/// output line lands in `out`.
struct Session {
    pipe: RequestPipe,
    out: LineCollector,
    handle: JoinHandle<ServeSummary>,
}

fn start_session(workers: usize) -> Session {
    let catalog = Arc::new(Catalog::new(resolver()));
    let (pipe, reader) = request_pipe();
    let out = LineCollector::new();
    let sink = out.clone();
    let handle = std::thread::spawn(move || {
        serve::serve(reader, sink, catalog, &ServeOptions { workers }, None)
    });
    Session { pipe, out, handle }
}

impl Session {
    /// Sends `shutdown` (drain), closes the request stream, and returns
    /// the summary along with the collected output (the collector is
    /// shared, so this is every line the session wrote).
    fn shut_down(self) -> (ServeSummary, LineCollector) {
        self.pipe.request(&Request::Shutdown { cancel: false });
        drop(self.pipe);
        (self.handle.join().expect("serve thread"), self.out)
    }
}

/// Strips [`VOLATILE`] fields so two records can be compared for the
/// bit-identity the daemon promises.
fn stripped(record: &Json) -> Json {
    match record {
        Json::Obj(map) => {
            let mut map = map.clone();
            for key in VOLATILE {
                map.remove(key);
            }
            Json::Obj(map)
        }
        other => panic!("flow record is not an object: {other:?}"),
    }
}

fn record_type(record: &Json) -> &str {
    record.get("type").and_then(Json::as_str).unwrap_or("")
}

fn job_id(record: &Json) -> Option<u64> {
    record.get("job_id").and_then(Json::as_u64)
}

/// Runs `flow::run` directly with the job's exact configuration and
/// returns its volatile-stripped `run_end` record.
fn direct_run_end(spec: &SubmitRequest) -> Json {
    let aig = resolve(&spec.source);
    let collector = LineCollector::new();
    trace::reset();
    trace::enable_writer(Box::new(collector.clone()));
    flow::run(&aig, &spec.flow_config()).expect("direct flow");
    trace::flush();
    trace::disable();
    let line = collector
        .lines()
        .into_iter()
        .rev()
        .find(|l| l.contains("\"type\":\"run_end\""))
        .expect("direct run emitted a run_end record");
    stripped(&Json::parse(&line).expect("direct run_end parses"))
}

/// The three-job mix of the smoke gate: an exact-certified job, an NMED
/// job, and a plain ER job, all on Test-scale circuits with distinct
/// seeds.
fn smoke_jobs() -> Vec<SubmitRequest> {
    let mut cert = SubmitRequest::named("alu4", "test");
    cert.threshold = 0.05;
    cert.seed = 7;
    cert.max_iterations = Some(12);
    cert.measure_rounds = Some(20_000);
    cert.certify = true;

    let mut nmed = SubmitRequest::named("mtp8", "test");
    nmed.metric = ErrorMetric::Nmed;
    nmed.threshold = 0.01;
    nmed.seed = 3;
    nmed.max_iterations = Some(10);
    nmed.measure_rounds = Some(20_000);

    let mut er = SubmitRequest::named("wal8", "test");
    er.threshold = 0.03;
    er.seed = 5;
    er.max_iterations = Some(10);
    er.measure_rounds = Some(20_000);

    vec![cert, nmed, er]
}

/// A windowed job over the ~10.5k-AND Wallace multiplier from the
/// scale-study set, bounded to two iterations so the saturation run (and
/// the smoke's cancel target) stays within a CI budget.
fn large_job(seed: u64) -> SubmitRequest {
    let mut job = SubmitRequest::named("wal32", "test");
    job.threshold = 0.05;
    job.seed = seed;
    job.priority = 1;
    job.max_iterations = Some(2);
    job.measure_rounds = Some(2_000);
    job
}

/// Waits on `rx` for a record satisfying `pred`, panicking with `what`
/// after the timeout.
fn expect_record(rx: &mpsc::Receiver<String>, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    wait_for_record(rx, Duration::from_secs(300), pred)
        .unwrap_or_else(|| panic!("timed out waiting for {what}"))
}

// -------------------------------------------------------------------
// Smoke gate

fn run_smoke(path: &str) {
    let workers = pool::current_threads();
    let jobs = smoke_jobs();

    // References first: the daemon owns the global trace sink while a
    // session is live.
    let references: Vec<Json> = jobs.iter().map(direct_run_end).collect();

    let session = start_session(workers);
    let started = Instant::now();
    // Job ids are assigned in submission order: 1, 2, 3. The malformed
    // line goes in as line 2 and must be rejected by line number without
    // disturbing the jobs around it.
    session.pipe.request(&Request::Submit(jobs[0].clone()));
    session.pipe.send_line("{\"op\":");
    session.pipe.request(&Request::Submit(jobs[1].clone()));
    session.pipe.request(&Request::Submit(jobs[2].clone()));
    let (summary, out) = session.shut_down();
    let wall_ns = started.elapsed().as_nanos() as u64;

    let records: Vec<Json> = out
        .lines()
        .iter()
        .map(|l| Json::parse(l).expect("daemon emits valid JSON lines"))
        .collect();

    // 1. Bit-identity of every streamed run_end against the direct run.
    for (i, reference) in references.iter().enumerate() {
        let id = i as u64 + 1;
        let matching: Vec<&Json> = records
            .iter()
            .filter(|r| record_type(r) == "run_end" && job_id(r) == Some(id))
            .collect();
        assert_eq!(
            matching.len(),
            1,
            "job {id}: expected exactly one run_end, got {}",
            matching.len()
        );
        assert_eq!(
            &stripped(matching[0]),
            reference,
            "job {id} ({}): daemon run_end differs from direct flow::run",
            jobs[i].source.label()
        );
    }

    // 2. The malformed line produced a structured error naming line 2.
    let error = records
        .iter()
        .find(|r| record_type(r) == "error")
        .expect("malformed line produced an error record");
    assert_eq!(
        error.get("line").and_then(Json::as_u64),
        Some(2),
        "error record must carry the 1-based line number"
    );

    // 3. All three jobs finished despite the bad line in the middle.
    let done: Vec<&Json> = records
        .iter()
        .filter(|r| record_type(r) == "job_done")
        .collect();
    assert_eq!(done.len(), 3, "expected 3 job_done records");
    for d in &done {
        assert_eq!(
            d.get("outcome").and_then(Json::as_str),
            Some("completed"),
            "job {:?} did not complete",
            job_id(d)
        );
    }
    assert_eq!(summary.totals.submitted, 3);
    assert_eq!(summary.totals.completed, 3);
    assert_eq!(summary.totals.rejected_lines, 1);

    eprintln!(
        "smoke: 3/3 run_end records bit-identical to direct runs at {workers} worker(s); \
         malformed line rejected in place"
    );

    run_cancel_smoke();

    // A small artifact from the session so `report --serve` sees a fresh
    // file in CI.
    let artifact = artifact_json(true, workers, &jobs, &done, &summary, wall_ns);
    std::fs::write(path, artifact + "\n").expect("write benchmark JSON");
    println!("wrote {path}");
}

/// Cancels an in-flight large job and proves the terminal record is
/// `interrupted` with a checkpoint `flow::resume` completes from.
fn run_cancel_smoke() {
    let spec = large_job(9);
    let session = start_session(1);
    let watch = session.out.watch();
    session.pipe.request(&Request::Submit(spec.clone()));
    // The first wal32 iteration takes seconds; the cancel lands well
    // before the flow's next budget check.
    expect_record(&watch, "run_start of the cancel target", |r| {
        record_type(r) == "run_start" && job_id(r) == Some(1)
    });
    session.pipe.request(&Request::Cancel { job_id: 1 });
    let done = expect_record(&watch, "terminal record of the cancelled job", |r| {
        record_type(r) == "job_done" && job_id(r) == Some(1)
    });
    let (summary, _) = session.shut_down();

    assert_eq!(
        done.get("outcome").and_then(Json::as_str),
        Some("interrupted"),
        "cancel of an in-flight job must interrupt it"
    );
    assert_eq!(summary.totals.interrupted, 1);
    let text = done
        .get("checkpoint")
        .and_then(Json::as_str)
        .expect("interrupted job carries a checkpoint");
    let checkpoint = Checkpoint::parse(text).expect("checkpoint round-trips");
    let iterations_done = checkpoint.iterations;

    let aig = resolve(&spec.source);
    let config: FlowConfig = spec.flow_config();
    let resumed = flow::resume(&aig, &config, checkpoint).expect("resume from daemon checkpoint");
    assert!(
        resumed.outcome.is_completed(),
        "resumed run must complete: {:?}",
        resumed.outcome
    );
    assert_eq!(resumed.iterations, config.max_iterations);
    eprintln!(
        "smoke: in-flight cancel interrupted wal32 after {iterations_done} iteration(s); \
         resume completed the remaining {}",
        config.max_iterations - iterations_done
    );
}

// -------------------------------------------------------------------
// Saturation benchmark

fn run_saturation(path: &str) {
    let workers = pool::current_threads();
    let mut jobs = Vec::new();
    for bench in catalog::iscas_and_arith(Scale::Test) {
        let mut job = SubmitRequest::named(bench.paper_name, "test");
        job.threshold = 0.05;
        job.seed = SEED;
        job.max_iterations = Some(12);
        job.measure_rounds = Some(20_000);
        job.certify = true;
        jobs.push(job);
    }
    jobs.push(large_job(1));
    jobs.push(large_job(2));

    let session = start_session(workers);
    let started = Instant::now();
    for job in &jobs {
        session.pipe.request(&Request::Submit(job.clone()));
    }
    let (summary, out) = session.shut_down();
    let wall_ns = started.elapsed().as_nanos() as u64;

    let records: Vec<Json> = out
        .lines()
        .iter()
        .map(|l| Json::parse(l).expect("daemon emits valid JSON lines"))
        .collect();
    let done: Vec<&Json> = records
        .iter()
        .filter(|r| record_type(r) == "job_done")
        .collect();
    assert_eq!(
        done.len(),
        jobs.len(),
        "every job must reach a terminal record"
    );
    assert_eq!(summary.totals.completed, jobs.len() as u64);

    let artifact = artifact_json(false, workers, &jobs, &done, &summary, wall_ns);
    std::fs::write(path, artifact + "\n").expect("write benchmark JSON");
    println!(
        "wrote {path} ({} jobs in {:.2}s at {workers} worker(s))",
        jobs.len(),
        wall_ns as f64 / 1e9
    );
}

// -------------------------------------------------------------------
// Artifact

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    assert!(!sorted.is_empty());
    let idx = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[idx]
}

fn artifact_json(
    smoke: bool,
    workers: usize,
    jobs: &[SubmitRequest],
    done: &[&Json],
    summary: &ServeSummary,
    wall_ns: u64,
) -> String {
    let req = |record: &Json, key: &str| {
        record
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("job_done record lacks {key:?}"))
    };

    // Terminal records arrive in completion order; report them by job id.
    let mut sorted_done: Vec<&Json> = done.to_vec();
    sorted_done.sort_by_key(|d| job_id(d).expect("job_done carries job_id"));

    let mut latencies: Vec<u64> = Vec::new();
    let mut depths: Vec<u64> = Vec::new();
    let mut detail = Arr::new();
    for d in &sorted_done {
        let id = job_id(d).expect("job_done carries job_id");
        let queue_ns = req(d, "queue_ns");
        let run_ns = req(d, "run_ns");
        let depth = req(d, "queue_depth");
        latencies.push(queue_ns + run_ns);
        depths.push(depth);
        let spec = &jobs[(id - 1) as usize];
        detail = detail.obj(
            Obj::new()
                .u64("job_id", id)
                .str("circuit", spec.source.label())
                .u64("priority", spec.priority)
                .str(
                    "outcome",
                    d.get("outcome").and_then(Json::as_str).unwrap_or("?"),
                )
                .u64("queue_ns", queue_ns)
                .u64("run_ns", run_ns)
                .u64("queue_depth", depth)
                .u64("iterations", req(d, "iterations"))
                .u64("applied", req(d, "applied"))
                .u64("ands", req(d, "ands")),
        );
    }
    latencies.sort_unstable();
    let mean_depth = depths.iter().sum::<u64>() as f64 / depths.len().max(1) as f64;

    Obj::new()
        .str("benchmark", "serve")
        .bool("smoke", smoke)
        .u64("threads", pool::current_threads() as u64)
        .u64("workers", workers as u64)
        .u64("jobs", jobs.len() as u64)
        .u64("completed", summary.totals.completed)
        .u64("interrupted", summary.totals.interrupted)
        .u64("cancelled", summary.totals.cancelled)
        .u64("failed", summary.totals.failed)
        .u64("rejected_lines", summary.totals.rejected_lines)
        .u64("wall_ns", wall_ns)
        .f64(
            "jobs_per_sec",
            done.len() as f64 / (wall_ns.max(1) as f64 / 1e9),
        )
        .obj(
            "latency_ns",
            Obj::new()
                .u64("p50", percentile(&latencies, 50))
                .u64("p95", percentile(&latencies, 95))
                .u64("max", *latencies.last().expect("at least one job")),
        )
        .obj(
            "queue_depth",
            Obj::new()
                .u64("max", depths.iter().copied().max().unwrap_or(0))
                .f64("mean", mean_depth),
        )
        .arr("jobs_detail", detail)
        .finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    if smoke {
        run_smoke(&path);
    } else {
        run_saturation(&path);
    }
}
