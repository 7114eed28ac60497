//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <corpus|serve-mix> --seed N --seconds S
//!           --trace <0|1> --p4testgen <path to the p4testgen binary>
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which builds
//! the library and the `p4testgen` binary from source first.
//!
//! `--trace 0` is the timed run: no spans, no metrics registry. It prints
//! the end-to-end metrics. `--trace 1` is the traced run: it alternates
//! untraced and traced passes over the same requests, records layer spans
//! around the benchmark's calls into each layer, folds in the counters
//! those calls return, and prints the per-layer metrics.
//!
//! A timed run is a sequence of sub-runs that lasts `--seconds`. A sub-run
//! is the smallest number of whole rounds of programs (serve-mix: blocks of
//! the stream) that holds at least `MIN_REQUESTS` requests. Each metric is
//! computed over every request of a sub-run: latency percentiles over all
//! of them, rates as completions per wall-second of the sub-run, CPU as the
//! working process's CPU over the sub-run per completion. The run reports
//! the median of each metric over its sub-runs, so a few seconds in which
//! other tenants of a shared host slow it down move the result less; no
//! request is left out of its sub-run. Timings are scaled to a reference
//! host speed measured during the same sub-run (see [`calib`]); the
//! unscaled figures are reported as `raw.<metric>`.
//!
//! Every run checks its outputs: golden suites, interp and refeval verdicts
//! on every emitted test, served suites against in-process ones, and exact
//! repetition of the engine counters. The last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; any failed
//! operation makes the exit code 1. The full result, and in a traced run the
//! spans, are written under `.bench_build/perfbench/`.

mod calib;
mod pipeline;
mod serve;
mod sys;
mod trace;
mod workloads;

use pipeline::{Counters, LayerSample, Outcome, Request, Tgt};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Kind, Plan, Workload};

/// Every sub-run of a timed run completes at least this many requests, so
/// that its p90 has ten samples beyond it.
const MIN_REQUESTS: usize = 100;
/// Set-up is repeated at least this many times per timed run; `setup_s` is
/// the median. In-process workloads repeat it between sub-runs as well, so
/// that the samples are spread over the run.
const SETUPS: usize = 5;
/// Requests per pass of the corpus traced run: every program once.
const CORPUS_PASS: usize = 12;
/// How a timed run samples the calibration kernel, always with no request
/// in flight: between corpus requests, at most once per `SAMPLE_EVERY`;
/// and `BOUNDARY_SAMPLES` times at each serve-mix sub-run boundary, where
/// the clients wait for every reply first (sampling beside running
/// requests measured their contention for the CPUs, not the host).
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
const BOUNDARY_SAMPLES: usize = 8;
/// Where results and spans are written, relative to the repository root.
const OUT_DIR: &str = ".bench_build/perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    p4testgen: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <corpus|serve-mix> --seed N --seconds S \
         --trace <0|1> --p4testgen PATH"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut p4testgen = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let v = it.next()?;
        match a.as_str() {
            "--workload" => workload = Workload::parse(v),
            "--seed" => seed = v.parse().ok(),
            "--seconds" => seconds = v.parse().ok().filter(|&s: &u64| s >= 1),
            "--trace" => {
                trace = match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--p4testgen" => p4testgen = Some(PathBuf::from(v)),
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        p4testgen: p4testgen?,
    })
}

/// One measured metric for the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.note(&out.errors);
    }

    fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(&[msg]);
    }

    fn note(&mut self, errors: &[String]) {
        for e in errors {
            if self.errors.len() < 20 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// Latency of one slice of a run's requests: one corpus program, or one
/// serve-mix request kind.
struct Row {
    name: String,
    latencies_ms: Vec<f64>,
    ir_hits: usize,
    instance_hits: usize,
}

impl Row {
    fn new(name: &str) -> Row {
        Row {
            name: name.to_string(),
            latencies_ms: Vec::new(),
            ir_hits: 0,
            instance_hits: 0,
        }
    }

    fn p50(&self) -> f64 {
        sys::median(self.latencies_ms.clone())
    }

    fn p90(&self) -> f64 {
        sys::quantile(&mut self.latencies_ms.clone(), 0.9)
    }
}

struct Report {
    workload: Workload,
    seed: u64,
    trace: bool,
    stream_hash: u64,
    requests: usize,
    tally: Tally,
    metrics: Vec<Metric>,
    /// The exact-counter block (`--trace 0` and `--trace 1` alike).
    counters: BTreeMap<&'static str, f64>,
    rows: Vec<Row>,
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let repo = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = args.trace.then(Tracer::new);
    let result = match args.workload {
        Workload::ServeMix => run_serve(&args, &repo, tracer.as_mut()),
        Workload::Corpus => run_in_process(&args, &repo, tracer.as_mut()),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = write_outputs(&repo, &report, tracer.as_ref()) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    print_report(&report);
    if report.tally.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// In-process workload: corpus
// ---------------------------------------------------------------------------

/// Suites of earlier requests, by request identity: the reference a
/// repeated request's suite must equal when no golden suite exists.
type SuiteKey = (Arc<str>, String, u64, Tgt);

fn key(r: &Request) -> SuiteKey {
    (Arc::clone(&r.source), r.name.clone(), r.seed, r.target)
}

/// Check one in-process outcome against its golden suite or, failing
/// that, against the first suite the same request produced in this run.
fn check_suite(
    out: &mut Outcome,
    r: &Request,
    plan: &Plan,
    seen: &mut HashMap<SuiteKey, (String, Counters)>,
) {
    if let Some(golden) = plan.goldens.get(&r.name) {
        out.compare(&r.name, golden);
    }
    let Some(suite) = &out.suite else { return };
    match seen.get(&key(r)) {
        Some((first, counters)) => {
            if !plan.goldens.contains_key(&r.name) {
                out.compare(&r.name, first);
            }
            let mut now = out.counters;
            // The pool size is only known with a registry attached.
            now.pool_terms = counters.pool_terms;
            if now != *counters {
                out.failed += 1;
                out.errors.push(format!(
                    "{}: engine counters differ between repeats",
                    r.name
                ));
            }
        }
        None => {
            seen.insert(key(r), (suite.clone(), out.counters));
        }
    }
}

/// In-process set-up: build the plan (inputs, goldens) and run its warm-up
/// requests. Returns the plan and the seconds it took.
fn set_up(args: &Args, repo: &Path, tally: &mut Tally) -> Result<(Plan, f64), String> {
    let t0 = Instant::now();
    let plan = workloads::plan(args.workload, args.seed, repo)?;
    for r in &plan.warmup {
        tally.add(&pipeline::execute(r, None, false));
    }
    Ok((plan, t0.elapsed().as_secs_f64()))
}

fn run_in_process(args: &Args, repo: &Path, tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let mut tally = Tally::default();
    let (plan, first_setup) = set_up(args, repo, &mut tally)?;
    let mut setups = vec![first_setup];
    let mut seen = HashMap::new();
    let mut report = Report {
        workload: args.workload,
        seed: args.seed,
        trace: args.trace,
        stream_hash: plan.hash,
        requests: 0,
        tally: Tally::default(),
        metrics: Vec::new(),
        counters: BTreeMap::new(),
        rows: Vec::new(),
    };

    if let Some(tr) = tracer {
        let reqs: Vec<&Request> = plan.stream[..CORPUS_PASS].iter().map(|(_, r)| r).collect();
        let mut agg = LayerAgg::default();
        let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
        let t0 = Instant::now();
        let mut id = 0;
        let mut round = 0;
        // Untraced and traced passes over the same requests; which goes
        // first alternates, so drift in machine speed cancels out.
        while t0.elapsed().as_secs() < args.seconds || traced.is_zero() {
            let order = if round % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            round += 1;
            for traced_pass in order {
                let t = Instant::now();
                for r in &reqs {
                    let mut out = if traced_pass {
                        tr.begin_request(id);
                        let out = pipeline::execute(r, Some(&mut *tr), true);
                        tr.exit();
                        agg.add(&out);
                        out
                    } else {
                        pipeline::execute(r, None, false)
                    };
                    check_suite(&mut out, r, &plan, &mut seen);
                    tally.add(&out);
                    id += 1;
                }
                *(if traced_pass { &mut traced } else { &mut plain }) += t.elapsed();
            }
            report.requests += 2 * reqs.len();
        }
        let layers = tr.layer_times();
        let (req_total, req_self, _) = layers.get("request").copied().unwrap_or_default();
        let unattributed = if req_total > 0.0 {
            req_self / req_total
        } else {
            0.0
        };
        let overhead = traced.as_secs_f64() / plain.as_secs_f64() - 1.0;
        report.metrics = per_layer_metrics(&agg, &layers, None, unattributed, overhead);
    } else {
        let seconds = Duration::from_secs(args.seconds);
        let per_sub = MIN_REQUESTS.next_multiple_of(plan.round_len);
        let mut subs: Vec<SubRun> = Vec::new();
        let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
        let mut calib = calib::Sampler::new(SAMPLE_EVERY);
        let t0 = Instant::now();
        let mut i = 0;
        while subs.is_empty() || t0.elapsed() < seconds {
            if !subs.is_empty() {
                setups.push(set_up(args, repo, &mut tally)?.1);
            }
            let mut sub = SubRun::default();
            let (ts, cpu0) = (Instant::now(), sys::cpu_seconds("self")?);
            // Kernel samples run between requests and are left out of the
            // sub-run's wall and CPU time.
            let mut paused = Duration::ZERO;
            for _ in 0..per_sub {
                paused += calib.tick();
                let r = &plan.stream[i % plan.stream.len()].1;
                let t = Instant::now();
                let mut out = pipeline::execute(r, None, false);
                let ms = sys::ms(t.elapsed());
                check_suite(&mut out, r, &plan, &mut seen);
                sub.latencies_ms.push(ms);
                let row = rows.entry(&r.name).or_insert_with(|| Row::new(&r.name));
                row.latencies_ms.push(ms);
                sub.tests += out.validated;
                sub.coverage_sum += out.counters.coverage_pct;
                tally.add(&out);
                i += 1;
            }
            let end = Instant::now();
            sub.wall_s = (end - ts - paused).as_secs_f64();
            sub.cpu_s = sys::cpu_seconds("self")? - cpu0 - calib.cpu_ms(ts, end) / 1e3;
            sub.speed = calib.speed(ts, end);
            subs.push(sub);
        }
        while setups.len() < SETUPS {
            setups.push(set_up(args, repo, &mut tally)?.1);
        }
        report.requests = i;
        report.rows = rows.into_values().collect();
        let speed = calib.speed(t0, Instant::now());
        report.metrics = end_to_end_metrics(setups, speed, subs, sys::peak_rss_mb("self")?, &tally);
    }
    report.counters = counter_block(&plan.probe, &mut tally);
    report.tally = tally;
    Ok(report)
}

/// Run the seed-independent probe requests twice with a registry attached,
/// fail on any counter that does not repeat exactly, and return the block.
fn counter_block(probe: &[Request], tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut sum = Counters {
            pool_terms: Some(0),
            ..Counters::default()
        };
        for r in probe {
            let out = pipeline::execute(r, None, true);
            tally.add(&out);
            let c = out.counters;
            sum.paths += c.paths;
            sum.tests += c.tests;
            sum.checks += c.checks;
            sum.model_checks += c.model_checks;
            sum.feasibility_checks += c.feasibility_checks;
            sum.sat_propagations += c.sat_propagations;
            sum.pool_terms = Some(sum.pool_terms.unwrap_or(0) + c.pool_terms.unwrap_or(0));
            sum.coverage_pct += c.coverage_pct / probe.len() as f64;
        }
        runs.push(sum);
    }
    tally.attempted += 1;
    if runs[0] != runs[1] {
        tally.failed += 1;
        tally.note(&["exact-counter block differs between two probe runs".to_string()]);
    }
    let c = runs[0];
    BTreeMap::from([
        ("core.paths", c.paths as f64),
        ("core.tests", c.tests as f64),
        ("smt.checks", c.checks as f64),
        ("smt.model_checks", c.model_checks as f64),
        ("smt.feasibility_checks", c.feasibility_checks as f64),
        ("smt.pool_terms", c.pool_terms.unwrap_or(0) as f64),
        ("smt.sat_propagations", c.sat_propagations as f64),
        ("coverage_pct", c.coverage_pct),
    ])
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

/// Spawn a daemon and warm its caches with the working set.
fn ready_daemon(args: &Args, plan: &Plan, tally: &mut Tally) -> Result<serve::Daemon, String> {
    let daemon = serve::Daemon::spawn(&args.p4testgen)?;
    let warm: Vec<&Request> = plan.warmup.iter().collect();
    for reply in serve::closed_loop(&daemon.addr, &warm, None)? {
        if !reply.ok {
            tally.fail(format!("warm-up request {}: {}", reply.index, reply.status));
        }
    }
    Ok(daemon)
}

fn run_serve(args: &Args, repo: &Path, mut tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        if let Some((daemon, _)) = ready.take() {
            serve::Daemon::stop(daemon);
        }
        let t0 = Instant::now();
        let p = workloads::plan(args.workload, args.seed, repo)?;
        let daemon = ready_daemon(args, &p, &mut tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some((daemon, p));
    }
    let (daemon, plan) = ready.expect("at least one set-up");
    let stream: Vec<&Request> = plan.stream.iter().map(|(_, r)| r).collect();
    let mut report = Report {
        workload: args.workload,
        seed: args.seed,
        trace: args.trace,
        stream_hash: plan.hash,
        requests: 0,
        tally: Tally::default(),
        metrics: Vec::new(),
        counters: BTreeMap::new(),
        rows: Vec::new(),
    };

    // The timed and the traced run send the stream alike; the traced run
    // also records a span per round trip and scrapes `/metrics`.
    let pid = daemon.pid();
    let per_sub = MIN_REQUESTS.next_multiple_of(plan.round_len);
    // The timed run samples the calibration kernel at every sub-run
    // boundary: before the first sub-run, between sub-runs and after the
    // last.
    let calib = (!args.trace).then(|| Mutex::new(calib::Sampler::new(SAMPLE_EVERY)));
    let sample = || {
        if let Some(c) = &calib {
            c.lock()
                .expect("the sampler does not panic")
                .sample(BOUNDARY_SAMPLES);
        }
    };
    let window = serve::Window {
        until: Instant::now() + Duration::from_secs(args.seconds),
        block: per_sub,
        pid: &pid,
        between: calib.is_some().then_some(&sample as &(dyn Fn() + Sync)),
    };
    let cpu0 = sys::cpu_seconds(&pid)?;
    let first = Instant::now();
    sample();
    let replies = serve::closed_loop(&daemon.addr, &stream, Some(&window))?;
    sample();
    let last = Instant::now();
    let peak_rss_mb = sys::peak_rss_mb(&pid)?;
    let metrics_text = match tracer.as_mut() {
        Some(tr) => {
            for r in &replies {
                tr.record("serve.request", r.index as u64, r.sent, r.received);
            }
            daemon.http_get("/metrics")?.1
        }
        None => String::new(),
    };
    daemon.stop();
    report.requests = replies.len();

    // Served suites must equal the in-process suite for the same request.
    // References are computed once per distinct request, after the timed
    // window. The traced run executes each reference both untraced and
    // traced, alternating which goes first, for the trace overhead; the
    // traced executions give serve-mix its engine layer metrics.
    let mut refs: HashMap<SuiteKey, Outcome> = HashMap::new();
    let mut agg = LayerAgg::default();
    let mut passes = (Duration::ZERO, Duration::ZERO);
    let mut ref_id = 1u64 << 32;
    let mut validated: HashMap<usize, u64> = HashMap::new();
    for reply in &replies {
        let r = stream[reply.index];
        tally.attempted += 1;
        if !reply.ok {
            tally.failed += 1;
            tally.note(&[format!(
                "request {} ({}): {}",
                reply.index, r.name, reply.status
            )]);
            continue;
        }
        let reference = refs.entry(key(r)).or_insert_with(|| {
            let Some(tr) = tracer.as_mut() else {
                let out = pipeline::execute(r, None, false);
                tally.add(&out);
                return out;
            };
            let (mut plain, mut traced) = (None, None);
            let traced_first = ref_id % 2 == 1;
            for traced_pass in [traced_first, !traced_first] {
                let t = Instant::now();
                if traced_pass {
                    tr.begin_request(ref_id);
                    traced = Some(pipeline::execute(r, Some(&mut **tr), true));
                    tr.exit();
                    passes.1 += t.elapsed();
                } else {
                    plain = Some(pipeline::execute(r, None, false));
                    passes.0 += t.elapsed();
                }
            }
            ref_id += 1;
            let (mut plain, traced) = (plain.expect("ran"), traced.expect("ran"));
            if let Some(suite) = &traced.suite {
                plain.compare(&r.name, suite);
            }
            tally.add(&plain);
            tally.add(&traced);
            agg.add(&traced);
            traced
        });
        tally.attempted += 1;
        if reference.suite.as_deref() != Some(reply.suite.as_str()) {
            tally.failed += 1;
            tally.note(&[format!(
                "request {} ({}): served suite differs from in-process",
                reply.index, r.name
            )]);
            continue;
        }
        validated.insert(reply.index, reference.validated);
    }

    let mut kinds: BTreeMap<Kind, Row> = BTreeMap::new();
    for reply in &replies {
        let kind = plan.stream[reply.index].0;
        let row = kinds.entry(kind).or_insert_with(|| Row::new(kind.name()));
        row.latencies_ms.push(sys::ms(reply.latency()));
        row.ir_hits += usize::from(reply.ir_hit);
        row.instance_hits += usize::from(reply.instance_hit);
    }
    report.rows = kinds.into_values().collect();

    if let Some(tr) = tracer {
        let serve = ServeLayer::from(&replies, &report.rows, &metrics_text);
        let unattributed = serve.wire_share;
        let overhead = passes.1.as_secs_f64() / passes.0.as_secs_f64() - 1.0;
        report.metrics = per_layer_metrics(
            &agg,
            &tr.layer_times(),
            Some(&serve),
            unattributed,
            overhead,
        );
    } else {
        let calib = calib
            .expect("a timed run samples the kernel")
            .into_inner()
            .expect("the sampler does not panic");
        // Sub-runs are consecutive slices of the stream. Each runs from its
        // first request's send to its last reply; the daemon's CPU is
        // charged from the previous sub-run's last reply, as the daemon is
        // idle in between. Its speed is taken from the kernel samples at
        // the boundaries before and after it.
        let chunks: Vec<&[serve::Reply]> = replies.chunks(per_sub).collect();
        let span = |c: &[serve::Reply]| {
            let start = c
                .iter()
                .map(|r| r.sent)
                .min()
                .expect("chunks are not empty");
            let end = c
                .iter()
                .max_by_key(|r| r.received)
                .expect("chunks are not empty");
            (start, end.received, end.daemon_cpu)
        };
        let spans: Vec<_> = chunks.iter().map(|c| span(c)).collect();
        let mut subs: Vec<SubRun> = Vec::new();
        let mut cpu_from = cpu0;
        for (k, chunk) in chunks.iter().enumerate() {
            let (start, end, cpu) = spans[k];
            let before = k.checked_sub(1).map_or(first, |p| spans[p].1);
            let after = spans.get(k + 1).map_or(last, |n| n.0);
            subs.push(SubRun {
                latencies_ms: chunk.iter().map(|r| sys::ms(r.latency())).collect(),
                tests: chunk.iter().filter_map(|r| validated.get(&r.index)).sum(),
                wall_s: (end - start).as_secs_f64(),
                cpu_s: cpu - cpu_from,
                coverage_sum: chunk.iter().map(|r| r.coverage_pct).sum(),
                speed: calib.speed(before, after),
            });
            cpu_from = cpu;
        }
        let speed = calib.speed(first, last);
        report.metrics = end_to_end_metrics(setups, speed, subs, peak_rss_mb, &tally);
    }
    report.counters = counter_block(&plan.probe, &mut tally);
    report.tally = tally;
    Ok(report)
}

/// Serve-layer figures of a traced run.
struct ServeLayer {
    queue_ms: f64,
    run_ms: f64,
    wire_ms: f64,
    wire_share: f64,
    ir_hit_ratio: f64,
    instance_hit_ratio: f64,
    memo_hit_ratio: f64,
    evictions: f64,
    shed: f64,
    /// Median latency per request kind, in [`Kind`] order.
    kind_p50_ms: [f64; 4],
}

impl ServeLayer {
    fn from(replies: &[serve::Reply], kinds: &[Row], metrics: &str) -> ServeLayer {
        let n = replies.len().max(1) as f64;
        let sum = |f: &dyn Fn(&serve::Reply) -> f64| replies.iter().map(f).fold(0.0, |a, b| a + b);
        let latency = sum(&|r| sys::ms(r.latency()));
        let queue = sum(&|r| r.queue_ms);
        let run = sum(&|r| r.run_ms);
        let wire = latency - queue - run;
        let memo_hits = serve::prom_value(metrics, "p4testgen_serve_cache_hits", "cache=\"memo\"");
        let memo_misses =
            serve::prom_value(metrics, "p4testgen_serve_cache_misses", "cache=\"memo\"");
        let kind_p50 = |k: Kind| {
            kinds
                .iter()
                .find(|row| row.name == k.name())
                .map_or(0.0, Row::p50)
        };
        ServeLayer {
            queue_ms: queue / n,
            run_ms: run / n,
            wire_ms: wire / n,
            wire_share: if latency > 0.0 { wire / latency } else { 0.0 },
            ir_hit_ratio: sum(&|r| f64::from(u8::from(r.ir_hit))) / n,
            instance_hit_ratio: sum(&|r| f64::from(u8::from(r.instance_hit))) / n,
            memo_hit_ratio: ratio(memo_hits, memo_hits + memo_misses),
            evictions: serve::prom_value(metrics, "p4testgen_serve_cache_evictions", ""),
            shed: serve::prom_value(metrics, "p4testgen_serve_requests_total", "status=\"shed\""),
            kind_p50_ms: [Kind::Repeat, Kind::Reformat, Kind::Reseed, Kind::Fresh].map(kind_p50),
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// What one sub-run of a timed run measured.
#[derive(Default)]
struct SubRun {
    /// Every request of the sub-run.
    latencies_ms: Vec<f64>,
    /// Emitted tests that passed validation.
    tests: u64,
    wall_s: f64,
    /// CPU time of the process doing the work, over the sub-run.
    cpu_s: f64,
    coverage_sum: f64,
    /// `REF_MS / kernel time` over the sub-run (see [`calib`]).
    speed: f64,
}

fn end_to_end_metrics(
    setups: Vec<f64>,
    run_speed: f64,
    subs: Vec<SubRun>,
    peak_rss_mb: f64,
    tally: &Tally,
) -> Vec<Metric> {
    // Each metric over every request of each sub-run, then its median over
    // the sub-runs. Timings are scaled to the reference host speed by the
    // sub-run's own speed (set-up by the run's); the unscaled figures
    // follow under `raw.`.
    let over = |f: &dyn Fn(&SubRun) -> f64| sys::median(subs.iter().map(f).collect());
    let n = |s: &SubRun| s.latencies_ms.len() as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    type Timing<'a> = (
        &'static str,
        &'static str,
        &'static str,
        bool,
        &'a dyn Fn(&SubRun) -> f64,
    );
    let timings: [Timing; 5] = [
        ("req_per_s", "raw.req_per_s", "1/s", true, &|s| {
            ratio(n(s), s.wall_s)
        }),
        ("tests_per_s", "raw.tests_per_s", "1/s", true, &|s| {
            ratio(s.tests as f64, s.wall_s)
        }),
        ("latency_p50_ms", "raw.latency_p50_ms", "ms", false, &|s| {
            sys::quantile(&mut s.latencies_ms.clone(), 0.5)
        }),
        ("latency_p90_ms", "raw.latency_p90_ms", "ms", false, &|s| {
            sys::quantile(&mut s.latencies_ms.clone(), 0.9)
        }),
        ("cpu_ms_per_req", "raw.cpu_ms_per_req", "ms", false, &|s| {
            ratio(s.cpu_s * 1e3, n(s))
        }),
    ];
    let setup_s = sys::median(setups);
    let mut out = vec![m("setup_s", setup_s * run_speed, "s")];
    for &(name, _, unit, rate, f) in &timings {
        let scaled = over(&|s| if rate { f(s) / s.speed } else { f(s) * s.speed });
        out.push(m(name, scaled, unit));
    }
    out.extend([
        m("peak_rss_mb", peak_rss_mb, "MiB"),
        m("coverage_pct", over(&|s| ratio(s.coverage_sum, n(s))), "%"),
        m(
            "fail_ratio",
            ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        ),
        m("raw.setup_s", setup_s, "s"),
    ]);
    for &(_, raw, unit, _, f) in &timings {
        out.push(m(raw, over(f), unit));
    }
    out.push(m("calib.speed", run_speed, "ratio"));
    out
}

/// Names of the end-to-end metrics that go into the final JSON line.
/// `fail_ratio` is 0 on a healthy commit, so it is carried by the line's
/// `attempted` and `failed` fields instead.
const E2E_JSON: [&str; 8] = [
    "setup_s",
    "req_per_s",
    "tests_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "cpu_ms_per_req",
    "peak_rss_mb",
    "coverage_pct",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-request sums of the engine's own counters over traced requests.
#[derive(Default)]
struct LayerAgg {
    requests: u64,
    c: Counters,
    pool_terms: u64,
    l: LayerSample,
}

impl LayerAgg {
    fn add(&mut self, out: &Outcome) {
        if out.suite.is_none() {
            return;
        }
        self.requests += 1;
        let (c, l) = (&out.counters, &out.layer);
        self.c.paths += c.paths;
        self.c.tests += c.tests;
        self.c.checks += c.checks;
        self.c.model_checks += c.model_checks;
        self.c.feasibility_checks += c.feasibility_checks;
        self.c.sat_propagations += c.sat_propagations;
        self.pool_terms += c.pool_terms.unwrap_or(0);
        let a = &mut self.l;
        a.solve += l.solve;
        a.sat += l.sat;
        a.stepping += l.stepping;
        a.emission += l.emission;
        a.infeasible_paths += l.infeasible_paths;
        a.warm_rebuilds += l.warm_rebuilds;
        a.roots_reused += l.roots_reused;
        a.roots_blasted += l.roots_blasted;
        a.blast_hits += l.blast_hits;
        a.blast_misses += l.blast_misses;
        a.learnt_imported += l.learnt_imported;
        a.memo_hits += l.memo_hits;
        a.memo_lookups += l.memo_lookups;
        a.suite_bytes += l.suite_bytes;
        a.source_bytes += l.source_bytes;
        a.ir_stmts += l.ir_stmts;
        a.interp_statements += l.interp_statements;
        a.interp_pass += l.interp_pass;
        a.refeval_agree += l.refeval_agree;
        a.refeval_unsupported += l.refeval_unsupported;
    }
}

fn per_layer_metrics(
    agg: &LayerAgg,
    layers: &BTreeMap<&'static str, (f64, f64, u64)>,
    serve: Option<&ServeLayer>,
    unattributed: f64,
    overhead: f64,
) -> Vec<Metric> {
    let n = agg.requests.max(1) as f64;
    let per = |v: u64| v as f64 / n;
    let secs = |d: Duration| d.as_secs_f64() / n;
    let span_total = |name: &str| layers.get(name).map_or(0.0, |t| t.0) / n;
    let span_self = |name: &str| layers.get(name).map_or(0.0, |t| t.1) / n;
    let (c, l) = (&agg.c, &agg.l);
    let tests = c.tests as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    let sv = |f: fn(&ServeLayer) -> f64| serve.map_or(0.0, f);
    vec![
        m("smt.encode_s", secs(l.solve.saturating_sub(l.sat)), "s/req"),
        m("smt.model_checks", per(c.model_checks), "count/req"),
        m(
            "smt.model_checks_per_test",
            ratio(c.model_checks as f64, tests),
            "ratio",
        ),
        m("smt.solving_s", secs(l.solve), "s/req"),
        m("smt.sat_s", secs(l.sat), "s/req"),
        m(
            "smt.feasibility_checks",
            per(c.feasibility_checks),
            "count/req",
        ),
        m(
            "smt.spine_reuse_ratio",
            ratio(
                l.roots_reused as f64,
                (l.roots_reused + l.roots_blasted) as f64,
            ),
            "ratio",
        ),
        m(
            "smt.blast_cache_hit_ratio",
            ratio(l.blast_hits as f64, (l.blast_hits + l.blast_misses) as f64),
            "ratio",
        ),
        m("smt.warm_rebuilds", per(l.warm_rebuilds), "count/req"),
        m("smt.checks", per(c.checks), "count/req"),
        m("smt.sat_propagations", per(c.sat_propagations), "count/req"),
        m("smt.pool_terms", per(agg.pool_terms), "count/req"),
        m("smt.learnt_imported", per(l.learnt_imported), "count/req"),
        m("core.run_s", span_total("core.run"), "s/req"),
        m("core.stepping_s", secs(l.stepping), "s/req"),
        m("core.emission_s", secs(l.emission), "s/req"),
        m("core.build_s", span_total("core.build"), "s/req"),
        m("core.paths", per(c.paths), "count/req"),
        m("core.tests", per(c.tests), "count/req"),
        m(
            "core.infeasible_paths",
            per(l.infeasible_paths),
            "count/req",
        ),
        m(
            "core.memo_hit_ratio",
            ratio(l.memo_hits as f64, l.memo_lookups as f64),
            "ratio",
        ),
        m("backends.render_s", span_total("backends.render"), "s/req"),
        m("backends.suite_kb", per(l.suite_bytes) / 1024.0, "KiB/req"),
        m("interp.validate_s", span_total("interp.validate"), "s/req"),
        m("interp.statements", per(l.interp_statements), "count/req"),
        m(
            "interp.pass_ratio",
            ratio(l.interp_pass as f64, tests),
            "ratio",
        ),
        m("refeval.eval_s", span_total("refeval.eval"), "s/req"),
        m(
            "refeval.agree_ratio",
            ratio(l.refeval_agree as f64, tests),
            "ratio",
        ),
        m(
            "refeval.unsupported",
            per(l.refeval_unsupported),
            "count/req",
        ),
        m("frontend.self_s", span_self("frontend"), "s/req"),
        m(
            "frontend.source_kb",
            per(l.source_bytes) / 1024.0,
            "KiB/req",
        ),
        m("ir.self_s", span_self("ir"), "s/req"),
        m("ir.stmts", per(l.ir_stmts), "count/req"),
        m("serve.queue_ms", sv(|s| s.queue_ms), "ms"),
        m("serve.run_ms", sv(|s| s.run_ms), "ms"),
        m("serve.wire_ms", sv(|s| s.wire_ms), "ms"),
        m("serve.ir_hit_ratio", sv(|s| s.ir_hit_ratio), "ratio"),
        m(
            "serve.instance_hit_ratio",
            sv(|s| s.instance_hit_ratio),
            "ratio",
        ),
        m("serve.memo_hit_ratio", sv(|s| s.memo_hit_ratio), "ratio"),
        m("serve.evictions", sv(|s| s.evictions), "count"),
        m("serve.shed", sv(|s| s.shed), "count"),
        m("serve.repeat_p50_ms", sv(|s| s.kind_p50_ms[0]), "ms"),
        m("serve.reformat_p50_ms", sv(|s| s.kind_p50_ms[1]), "ms"),
        m("serve.reseed_p50_ms", sv(|s| s.kind_p50_ms[2]), "ms"),
        m("serve.fresh_p50_ms", sv(|s| s.kind_p50_ms[3]), "ms"),
        m("harness.unattributed_ratio", unattributed, "ratio"),
        m("harness.trace_overhead_ratio", overhead, "ratio"),
    ]
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(report: &Report) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for m in &report.metrics {
        if !report.trace && !E2E_JSON.contains(&m.name) {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

fn counters_json(report: &Report) -> String {
    let items: Vec<String> = report
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn print_report(report: &Report) {
    let t = &report.tally;
    println!(
        "perfbench {} seed {} trace {} stream 0x{:016x} requests {}",
        report.workload.name(),
        report.seed,
        u8::from(report.trace),
        report.stream_hash,
        report.requests
    );
    for row in &report.rows {
        println!(
            "  {:<17} requests {:>5}  ir hits {:>5}  instance hits {:>5}  latency p50 {:>9.3} ms  p90 {:>9.3} ms",
            row.name,
            row.latencies_ms.len(),
            row.ir_hits,
            row.instance_hits,
            row.p50(),
            row.p90()
        );
    }
    for m in &report.metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("  exact counters {}", counters_json(report));
    for e in &t.errors {
        println!("  FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        metrics_json(report)
    );
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_default();
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_default();
    let q = |s: &str| {
        serde_json::to_string(&serde::value::Value::String(s.to_string())).unwrap_or_default()
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}}}",
        q(&cpu),
        q(&rustc)
    )
}

/// Write the full result, and in a traced run the spans, once at exit.
fn write_outputs(repo: &Path, report: &Report, tracer: Option<&Tracer>) -> Result<(), String> {
    let dir = repo.join(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        report.workload.name(),
        report.seed,
        u8::from(report.trace)
    );
    let all: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let rows: Vec<String> = report
        .rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"requests\": {}, \"ir_hits\": {}, \"instance_hits\": {}, \
                 \"latency_p50_ms\": {}, \"latency_p90_ms\": {}}}",
                r.name,
                r.latencies_ms.len(),
                r.ir_hits,
                r.instance_hits,
                json_num(r.p50()),
                json_num(r.p90())
            )
        })
        .collect();
    let result = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"stream_hash\": \"0x{:016x}\", \
         \"requests\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
         \"rows\": {{{}}}, \"exact_counters\": {}, \"host\": {}}}\n",
        report.workload.name(),
        report.seed,
        report.trace,
        report.stream_hash,
        report.requests,
        report.tally.attempted,
        report.tally.failed,
        all.join(", "),
        rows.join(", "),
        counters_json(report),
        host_json()
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, result).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if let Some(tr) = tracer {
        let path = dir.join(format!("{stem}-spans.jsonl"));
        std::fs::write(&path, tr.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
