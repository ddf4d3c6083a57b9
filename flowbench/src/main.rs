//! Whole-flow benchmark of the ALSRAC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload paper_accept --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run it from the repository root: the metrics it reports are the ones
//! `BENCHMARK.json` there lists. One client runs the workload's flows one
//! after another (a closed loop) through `alsrac::flow::run`, and repeats
//! the whole workload while `--seconds` allow. Between untraced flows it
//! times the workload's set-up for 5% of the time; `setup_s` is the median
//! over repeats of the mean set-up time sampled in each. `--trace 0`
//! reports the end-to-end metrics. `--trace 1` spends half the time
//! untraced and half traced, and reports the per-layer metrics. The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! `failed` counts flows that return an error, panic, end interrupted, or
//! whose output `check.rs` finds wrong. ER bound escapes are reported
//! apart, as `check.fail_share` and `check.escapes`. Any difference between
//! repeats of one flow, traced or not, aborts the run.

mod check;
mod layers;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use alsrac::flow::{self, FlowResult};
use alsrac_circuits::aiger;
use alsrac_rt::json::{Json, Obj};
use alsrac_rt::pool;

use layers::{Capture, SynthProbe, Traced};
use workloads::{Flow, Workload};

/// Seconds of back-to-back set-ups one sample times at least. One set-up
/// takes milliseconds, too short to time alone steadily.
const SETUP_SAMPLE_S: f64 = 0.05;

/// Seconds between set-up samples. On a shared host, allocation-heavy code
/// such as set-up slows by up to half for seconds at a time, so set-up is
/// sampled across the whole untraced run, as `wall_s` is, at a 5% duty
/// cycle that leaves `wce_gate` room for its second repeat.
const SETUP_EVERY_S: f64 = 1.0;

/// Pool threads. With two on a 2-core host, glibc's per-thread malloc
/// arenas moved peak RSS on `wce_gate` between 7.7 and 10.8 MB from seed
/// to seed, past its bound; the pool spawns fresh threads for every
/// parallel section, and one thread also ran `paper_reject` faster.
const POOL_THREADS: usize = 1;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds @ 1..), Some(trace @ 0..=1)) => Ok(Args {
            workload,
            seed,
            seconds: seconds as f64,
            trace: trace == 1,
        }),
        _ => Err("usage: --workload NAME --seed N --seconds N --trace 0|1".to_string()),
    }
}

/// `BENCHMARK.json` from the current directory.
fn read_spec() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn spec_list<'a>(spec: &'a Json, key: &str) -> Result<&'a [Json], String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
}

/// The (name, unit) of every metric the spec lists under `key`.
fn listed_metrics(spec: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    spec_list(spec, key)?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json {key} entry without name or unit"))
        })
        .collect()
}

/// Why the spec says `workload` exists.
fn why<'a>(spec: &'a Json, workload: &str) -> Result<&'a str, String> {
    spec_list(spec, "workloads")?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .and_then(|w| w.get("why").and_then(Json::as_str))
        .ok_or_else(|| format!("BENCHMARK.json does not describe workload {workload}"))
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one flow, turning errors, panics and interruptions into `Err`.
fn run_flow(flow: &Flow) -> (Result<FlowResult, String>, f64) {
    let start = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(|| flow::run(&flow.original, &flow.config)));
    let seconds = start.elapsed().as_secs_f64();
    let result = match result {
        Ok(Ok(r)) if r.outcome.is_completed() => Ok(r),
        Ok(Ok(r)) => Err(format!("ended {:?}", r.outcome)),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".to_string()),
    };
    (result, seconds)
}

/// Everything about a flow's result that must repeat exactly: the final
/// circuit, the work counts, the history, the measurement and the
/// certificate.
fn fingerprint(result: &Result<FlowResult, String>) -> Vec<u8> {
    let Ok(r) = result else {
        return format!("{result:?}").into_bytes();
    };
    let history: Vec<(u64, usize, usize)> = r
        .history
        .iter()
        .map(|h| (h.estimated_error.to_bits(), h.ands, h.rounds))
        .collect();
    let certificate = r.certificate.as_ref().map(|c| {
        (
            c.value.to_bits(),
            c.exact,
            c.sat_queries,
            format!("{:?}", c.status),
        )
    });
    let m = &r.measured;
    let mut bytes = aiger::write_binary(&r.approx);
    bytes.extend(
        format!(
            "{} {} {history:?} {} {} {:?} {:?} {:?} {certificate:?}",
            r.iterations,
            r.applied,
            m.num_patterns,
            m.error_rate.to_bits(),
            m.nmed.map(f64::to_bits),
            m.mred.map(f64::to_bits),
            m.max_error_distance,
        )
        .into_bytes(),
    );
    bytes
}

/// The results of the first repeat, and the per-flow seconds of every
/// repeat, untraced and traced apart.
#[derive(Default)]
struct Runs {
    results: Vec<Result<FlowResult, String>>,
    fingerprints: Vec<Vec<u8>>,
    untraced: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
    captures: Vec<Traced>,
}

impl Runs {
    /// Runs every flow once, in order, and errors unless each result and
    /// the traced work counts equal those of the first repeat.
    /// Untraced repeats take set-up samples between flows when due.
    fn repeat(&mut self, flows: &[Flow], traced: bool, setups: &mut Setups) -> Result<(), String> {
        let capture = traced.then(Capture::start);
        let (mut results, mut seconds) = (Vec::new(), Vec::new());
        for flow in flows {
            let (result, s) = run_flow(flow);
            results.push(result);
            seconds.push(s);
            if !traced {
                setups.sample_if_due(self.untraced.len())?;
            }
        }
        let prints: Vec<Vec<u8>> = results.iter().map(fingerprint).collect();
        if self.results.is_empty() {
            self.results = results;
            self.fingerprints = prints;
        } else if let Some(i) = (0..flows.len()).find(|&i| prints[i] != self.fingerprints[i]) {
            return Err(format!(
                "nondeterminism: {} differs between repeats (this one traced: {traced})",
                flows[i].label
            ));
        }
        match capture {
            Some(capture) => {
                let captured = capture.finish()?;
                if self
                    .captures
                    .first()
                    .is_some_and(|c| c.work() != captured.work())
                {
                    return Err("nondeterminism: work counters differ between repeats".into());
                }
                self.captures.push(captured);
                self.traced.push(seconds);
            }
            None => self.untraced.push(seconds),
        }
        Ok(())
    }

    /// Repeats the workload at least `min` times, then while another
    /// repeat of average length still fits in `budget` seconds.
    fn repeat_for(
        &mut self,
        flows: &[Flow],
        traced: bool,
        min: usize,
        budget: f64,
        setups: &mut Setups,
    ) -> Result<(), String> {
        let start = Instant::now();
        for done in 1.. {
            self.repeat(flows, traced, setups)?;
            let elapsed = start.elapsed().as_secs_f64();
            if done >= min && elapsed + elapsed / done as f64 > budget {
                break;
            }
        }
        Ok(())
    }

    /// Median over untraced repeats of flow `i`'s seconds.
    fn flow_s(&self, i: usize) -> f64 {
        median(self.untraced.iter().map(|r| r[i]))
    }

    fn ok<'a>(&'a self, flows: &'a [Flow]) -> impl Iterator<Item = (&'a Flow, &'a FlowResult)> {
        flows
            .iter()
            .zip(&self.results)
            .filter_map(|(f, r)| Some((f, r.as_ref().ok()?)))
    }
}

/// Median over repeats of the workload's summed flow seconds.
fn wall_s(reps: &[Vec<f64>]) -> f64 {
    median(reps.iter().map(|r| r.iter().sum()))
}

/// Every measured value by name, with its unit.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }
}

/// Checks every flow's result, prints one line per flow, and returns the
/// number of hard failures.
fn check_flows(flows: &[Flow], runs: &Runs, m: &mut Metrics) -> usize {
    let (mut hard, mut fails, mut escapes, mut capped) = (0, 0, 0, 0);
    for (i, (flow, result)) in flows.iter().zip(&runs.results).enumerate() {
        let line = match result {
            Err(e) => {
                hard += 1;
                fails += 1;
                format!("FAILED: {e}")
            }
            Ok(r) => {
                let verdict = check::check(flow, r);
                let at_cap = r.iterations == flow.config.max_iterations;
                capped += usize::from(at_cap);
                escapes += usize::from(verdict.escape);
                hard += usize::from(verdict.wrong.is_some());
                fails += usize::from(verdict.wrong.is_some() || verdict.escape);
                format!(
                    "ands {} -> {} depth {} -> {} iterations {}{} accepts {} measured {} \
                     checked {}{}{}",
                    flow.original.num_ands(),
                    r.approx.num_ands(),
                    flow.original.depth(),
                    r.approx.depth(),
                    r.iterations,
                    if at_cap { " (cap)" } else { "" },
                    r.applied,
                    r.measured.value(flow.config.metric).unwrap_or(f64::NAN),
                    verdict.error,
                    if verdict.escape { " ESCAPE" } else { "" },
                    verdict
                        .wrong
                        .map_or(String::new(), |w| format!(" WRONG: {w}")),
                )
            }
        };
        println!(
            "flow {} {}<={} {:.3} s: {line}",
            flow.label,
            flow.config.metric,
            flow.config.threshold,
            runs.flow_s(i)
        );
    }
    let n = flows.len() as f64;
    m.put("check.fail_share", fails as f64 / n, "ratio");
    m.put("check.escapes", escapes as f64, "count");
    m.put("flow.unconverged_share", capped as f64 / n, "ratio");
    hard
}

fn end_to_end(flows: &[Flow], runs: &Runs, setups: &Setups, m: &mut Metrics) -> Result<(), String> {
    let per_flow: Vec<f64> = (0..flows.len()).map(|i| runs.flow_s(i)).collect();
    let per_repeat = setups.per_repeat();
    m.put("setup_s", median(per_repeat.iter().map(|s| s[0])), "s");
    m.put(
        "circuits.generate_s",
        median(per_repeat.iter().map(|s| s[1])),
        "s",
    );
    m.put(
        "circuits.aiger_roundtrip_s",
        median(per_repeat.iter().map(|s| s[2])),
        "s",
    );
    m.put("wall_s", wall_s(&runs.untraced), "s");
    // Printed, not listed in BENCHMARK.json: the flows of a workload run
    // different circuits, so their median and max jump with whichever
    // circuit lands there (0.19-0.23 of the median between seeds), and
    // with at most 12 flows no percentile has ten samples beyond it.
    m.put("flow_s.p50", median(per_flow.iter().copied()), "s");
    m.put(
        "flow_s.max",
        per_flow.iter().copied().fold(0.0, f64::max),
        "s",
    );
    m.put("flow_s.samples", per_flow.len() as f64, "count");
    let ok = || runs.ok(flows);
    m.put(
        "area_ratio",
        geomean(ok().map(|(f, r)| r.approx.num_ands() as f64 / f.original.num_ands() as f64)),
        "ratio",
    );
    m.put(
        "depth_ratio",
        geomean(ok().map(|(f, r)| f64::from(r.approx.depth()) / f64::from(f.original.depth()))),
        "ratio",
    );
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(())
}

/// Per-layer metrics: medians over the traced repeats, the synth pass
/// probe, and the layer-tree summary.
fn per_layer(flows: &[Flow], runs: &Runs, m: &mut Metrics) -> Result<(), String> {
    let traced: Vec<_> = runs.captures.iter().map(Traced::metrics).collect();
    for (i, &(name, _, unit)) in traced[0].iter().enumerate() {
        m.put(name, median(traced.iter().map(|t| t[i].1)), unit);
    }
    m.put(
        "trace_overhead",
        wall_s(&runs.traced) / wall_s(&runs.untraced),
        "ratio",
    );

    // Seeds of one case that end on the same circuit are probed once.
    let mut probe = SynthProbe::default();
    let mut probed = BTreeSet::new();
    for (flow, r) in runs.ok(flows) {
        if probed.insert((
            aiger::write_binary(&flow.original),
            aiger::write_binary(&r.approx),
        )) {
            let [input, output] = probe.case(&flow.original, &r.approx)?;
            println!("synth {} input: {input}", flow.label);
            println!("synth {} output: {output}", flow.label);
        }
    }
    for (name, value, unit) in probe.metrics() {
        m.put(name, value, unit);
    }

    let selfs: Vec<_> = runs.captures.iter().map(Traced::layer_self_s).collect();
    let mut tree: Vec<(&str, f64)> = (0..selfs[0].len())
        .map(|i| (selfs[0][i].0, median(selfs.iter().map(|s| s[i].1))))
        .collect();
    tree.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = tree.iter().map(|t| t.1).sum();
    for (layer, s) in &tree {
        println!("layer {layer:<9} self {s:.4} s ({:.1}%)", 100.0 * s / total);
    }
    Ok(())
}

/// Sets the workload up back to back for at least `SETUP_SAMPLE_S`
/// seconds, and returns the last set-up's flows with the mean seconds of
/// one set-up: whole, generation and AIGER round trip.
fn time_setup(workload: &Workload, seed: u64) -> Result<(Vec<Flow>, [f64; 3]), String> {
    let mut parts = [0.0; 3];
    let start = Instant::now();
    let mut count = 0u32;
    loop {
        count += 1;
        let (flows, times) = workloads::setup(workload, seed)?;
        parts[1] += times.generate_s;
        parts[2] += times.roundtrip_s;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SETUP_SAMPLE_S {
            parts[0] = elapsed;
            return Ok((flows, parts.map(|p| p / f64::from(count))));
        }
    }
}

/// The set-up samples of one run, each tagged with the untraced repeat
/// it was taken in.
struct Setups {
    workload: &'static Workload,
    seed: u64,
    samples: Vec<(usize, [f64; 3])>,
    last: Instant,
}

impl Setups {
    /// Takes the first sample, and returns it with its flows.
    fn start(workload: &'static Workload, seed: u64) -> Result<(Setups, Vec<Flow>), String> {
        let (flows, sample) = time_setup(workload, seed)?;
        let setups = Setups {
            workload,
            seed,
            samples: vec![(0, sample)],
            last: Instant::now(),
        };
        Ok((setups, flows))
    }

    /// Takes one sample for every `SETUP_EVERY_S` passed since the last.
    fn sample_if_due(&mut self, repeat: usize) -> Result<(), String> {
        let due = (self.last.elapsed().as_secs_f64() / SETUP_EVERY_S) as usize;
        for _ in 0..due {
            self.samples
                .push((repeat, time_setup(self.workload, self.seed)?.1));
        }
        if due > 0 {
            self.last = Instant::now();
        }
        Ok(())
    }

    /// The mean of each untraced repeat's samples. Set-up time is
    /// bimodal on a shared host, so a mean over the repeat, like
    /// `wall_s`'s sum, is steadier than a median over samples.
    fn per_repeat(&self) -> Vec<[f64; 3]> {
        let repeats = self.samples.iter().map(|s| s.0 + 1).max().unwrap_or(0);
        (0..repeats)
            .filter_map(|r| {
                let group: Vec<_> = self.samples.iter().filter(|s| s.0 == r).collect();
                let n = group.len() as f64;
                (n > 0.0).then(|| [0, 1, 2].map(|k| group.iter().map(|s| s.1[k]).sum::<f64>() / n))
            })
            .collect()
    }
}

fn bench(args: &Args, threads: usize) -> Result<String, String> {
    let spec = read_spec()?;
    let key = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let listed = listed_metrics(&spec, key)?;
    let workload = args.workload;
    println!(
        "flowbench workload={} seed={} seconds={} trace={} nproc={} pool_threads={threads}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("why: {}", why(&spec, workload.name)?);

    let (mut setups, flows) = Setups::start(workload, args.seed)?;
    let mut runs = Runs::default();
    if args.trace {
        // Two traced repeats at least, so that their work counters meet.
        runs.repeat_for(&flows, false, 1, args.seconds / 2.0, &mut setups)?;
        runs.repeat_for(&flows, true, 2, args.seconds / 2.0, &mut setups)?;
    } else {
        runs.repeat_for(&flows, false, 1, args.seconds, &mut setups)?;
    }
    let samples: Vec<String> = (setups.samples.iter())
        .map(|(r, s)| format!("{r}:{:.3}", s[0] * 1e3))
        .collect();
    println!("set-up samples (repeat:ms): {}", samples.join(" "));
    let walls = |reps: &[Vec<f64>]| -> Vec<String> {
        reps.iter()
            .map(|r| format!("{:.3}", r.iter().sum::<f64>()))
            .collect()
    };
    println!(
        "repeats of {} flows: untraced {:?} s, traced {:?} s",
        flows.len(),
        walls(&runs.untraced),
        walls(&runs.traced),
    );

    // The determinism guard makes every repeat equal: check the first.
    let mut m = Metrics::default();
    let hard_failures = check_flows(&flows, &runs, &mut m);
    end_to_end(&flows, &runs, &setups, &mut m)?;
    // After the peak RSS reading: the catalog builds whole suites.
    workloads::check_catalog(workload)?;
    if args.trace {
        per_layer(&flows, &runs, &mut m)?;
    }
    for (name, (value, unit)) in &m.0 {
        let layer = name.split_once('.').map(|(l, _)| l);
        match layers::LAYERS.iter().find(|(l, _)| Some(*l) == layer) {
            Some((layer, target)) => println!("metric {name} {value} {unit} [{layer}: {target}]"),
            None => println!("metric {name} {value} {unit}"),
        }
    }

    let mut metrics = Obj::new();
    for (name, unit) in &listed {
        let (value, ours) = m.0.get(name.as_str()).ok_or_else(|| {
            format!("BENCHMARK.json lists {name}, which this run does not measure")
        })?;
        if ours != unit {
            return Err(format!(
                "{name}: BENCHMARK.json says {unit}, measured in {ours}"
            ));
        }
        metrics = metrics.obj(name, Obj::new().f64("value", *value).str("unit", unit));
    }
    let reps = (runs.untraced.len() + runs.traced.len()) as u64;
    Ok(Obj::new()
        .bool("correct", hard_failures == 0)
        .u64("attempted", reps * flows.len() as u64)
        .u64("failed", reps * hard_failures as u64)
        .obj("metrics", metrics)
        .finish())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pool::with_threads(POOL_THREADS, || bench(&args, POOL_THREADS)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}
