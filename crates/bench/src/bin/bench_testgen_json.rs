//! Solver-mode and parallel-scaling measurement for the exploration engine:
//! runs each bench program in both `--solver-mode` values (fresh-per-check
//! vs the warm incremental spine core) at 1/4/8 workers and writes
//! `BENCH_testgen.json` with wall-clock times, per-mode speedups, and the
//! engine counters that explain them (conflicts per check, solve time,
//! spine-root reuse, blast-cache hits).
//!
//! Usage: `bench_testgen_json [OUT_PATH]` (default `BENCH_testgen.json`).
//! Build with `--release`; debug-build timings are not meaningful.

use p4t_obs::Registry;
use p4t_targets::V1Model;
use p4testgen_core::{SolverMode, Testgen, TestgenConfig};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const JOB_COUNTS: [usize; 3] = [1, 4, 8];
const MODES: [SolverMode; 2] = [SolverMode::Fresh, SolverMode::Incremental];
const REPS: usize = 3;

#[derive(Serialize)]
struct Doc {
    benchmark: &'static str,
    host_cpus: usize,
    reps_per_point: usize,
    metric: &'static str,
    note: &'static str,
    results: Vec<ProgramResult>,
}

#[derive(Serialize)]
struct ProgramResult {
    program: &'static str,
    /// jobs=1 fresh wall-clock divided by jobs=1 incremental wall-clock:
    /// the single-core win of the warm spine core on this program.
    incremental_speedup_vs_fresh_jobs1: f64,
    modes: Vec<ModeResult>,
}

#[derive(Serialize)]
struct ModeResult {
    mode: &'static str,
    runs: Vec<RunPoint>,
}

#[derive(Serialize)]
struct RunPoint {
    jobs: usize,
    wall_seconds: f64,
    tests: u64,
    paths: u64,
    speedup_vs_jobs1: f64,
    /// Engine internals folded from the metrics registry of the run's last
    /// repetition (counts are deterministic across reps; only timing and
    /// contention vary).
    engine: EnginePoint,
}

#[derive(Default, Serialize)]
struct EnginePoint {
    solver_checks: u64,
    solve_seconds: f64,
    sat_conflicts: u64,
    conflicts_per_check: f64,
    sat_propagations: u64,
    memo_lookups: u64,
    memo_hits: u64,
    warm_checks: u64,
    fresh_fallbacks: u64,
    warm_rebuilds: u64,
    spine_roots_reused: u64,
    spine_roots_blasted: u64,
    blast_cache_hits: u64,
    blast_cache_misses: u64,
    pool_terms: u64,
    worker_steals: u64,
    worker_busy_ns: u64,
    worker_idle_ns: u64,
}

struct Workload {
    name: &'static str,
    src: String,
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counter_value(name, &[]).unwrap_or(0)
}

fn counter_l(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
    reg.counter_value(name, labels).unwrap_or(0)
}

fn measure(w: &Workload, mode: SolverMode, jobs: usize) -> (f64, u64, u64, EnginePoint) {
    let mut best = f64::INFINITY;
    let mut tests = 0;
    let mut paths = 0;
    let mut engine = EnginePoint::default();
    for _ in 0..REPS {
        let mut config = TestgenConfig::default();
        config.jobs = jobs;
        config.solver_mode = mode;
        let reg = Arc::new(Registry::new());
        config.obs.metrics = Some(reg.clone());
        let mut tg = Testgen::new(w.name, &w.src, V1Model::new(), config).unwrap();
        let t0 = Instant::now();
        let s = tg.run(|_| true);
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        tests = s.tests;
        paths = s.paths_explored;
        let checks = counter(&reg, "p4testgen_solver_checks_total");
        let conflicts = counter(&reg, "p4testgen_sat_conflicts_total");
        engine = EnginePoint {
            solver_checks: checks,
            solve_seconds: counter(&reg, "p4testgen_solver_solve_ns_total") as f64 / 1e9,
            sat_conflicts: conflicts,
            conflicts_per_check: conflicts as f64 / (checks.max(1)) as f64,
            sat_propagations: counter(&reg, "p4testgen_sat_propagations_total"),
            memo_lookups: counter(&reg, "p4testgen_memo_lookups_total"),
            memo_hits: counter(&reg, "p4testgen_memo_hits_total"),
            warm_checks: counter_l(
                &reg,
                "p4testgen_feasibility_checks_total",
                &[("path", "warm")],
            ),
            fresh_fallbacks: counter_l(
                &reg,
                "p4testgen_feasibility_checks_total",
                &[("path", "fresh_fallback")],
            ),
            warm_rebuilds: counter(&reg, "p4testgen_warm_rebuilds_total"),
            spine_roots_reused: counter_l(
                &reg,
                "p4testgen_spine_roots_total",
                &[("kind", "reused")],
            ),
            spine_roots_blasted: counter_l(
                &reg,
                "p4testgen_spine_roots_total",
                &[("kind", "blasted")],
            ),
            blast_cache_hits: counter_l(
                &reg,
                "p4testgen_blast_cache_total",
                &[("outcome", "hit")],
            ),
            blast_cache_misses: counter_l(
                &reg,
                "p4testgen_blast_cache_total",
                &[("outcome", "miss")],
            ),
            pool_terms: reg.gauge_value("p4testgen_pool_terms", &[]).unwrap_or(0),
            worker_steals: counter(&reg, "p4testgen_worker_steals_total"),
            worker_busy_ns: counter(&reg, "p4testgen_worker_busy_ns_total"),
            worker_idle_ns: counter(&reg, "p4testgen_worker_idle_ns_total"),
        };
    }
    (best, tests, paths, engine)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_testgen.json".to_string());
    let workloads = [
        Workload { name: "synthetic_4x3", src: p4t_corpus::generate_synthetic(4, 3) },
        Workload { name: "synthetic_5x3", src: p4t_corpus::generate_synthetic(5, 3) },
        Workload { name: "up4_sim", src: p4t_corpus::UP4_SIM.clone() },
        Workload { name: "parser_deep_12x6", src: p4t_corpus::generate_parser_deep(12, 6) },
        Workload { name: "parser_deep_20x8", src: p4t_corpus::generate_parser_deep(20, 8) },
    ];
    let mut results = Vec::new();
    for w in &workloads {
        let mut mode_results = Vec::new();
        let mut jobs1_by_mode = [0.0f64; 2];
        for (mi, &mode) in MODES.iter().enumerate() {
            let mut baseline = 0.0f64;
            let mut runs = Vec::new();
            for jobs in JOB_COUNTS {
                let (secs, tests, paths, engine) = measure(w, mode, jobs);
                if jobs == 1 {
                    baseline = secs;
                    jobs1_by_mode[mi] = secs;
                }
                let speedup = baseline / secs.max(1e-9);
                eprintln!(
                    "{} [{}]: jobs={jobs} {secs:.3}s ({tests} tests, {paths} paths, \
                     {speedup:.2}x, {} checks, {:.2} conflicts/check, {} roots reused)",
                    w.name,
                    mode.as_str(),
                    engine.solver_checks,
                    engine.conflicts_per_check,
                    engine.spine_roots_reused
                );
                runs.push(RunPoint {
                    jobs,
                    wall_seconds: secs,
                    tests,
                    paths,
                    speedup_vs_jobs1: speedup,
                    engine,
                });
            }
            mode_results.push(ModeResult { mode: mode.as_str(), runs });
        }
        let ratio = jobs1_by_mode[0] / jobs1_by_mode[1].max(1e-9);
        eprintln!("{}: incremental is {ratio:.2}x vs fresh at jobs=1", w.name);
        results.push(ProgramResult {
            program: w.name,
            incremental_speedup_vs_fresh_jobs1: ratio,
            modes: mode_results,
        });
    }
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let doc = Doc {
        benchmark: "solver-mode comparison and parallel scaling",
        host_cpus,
        reps_per_point: REPS,
        metric: "best-of-reps wall-clock seconds for a full generation run",
        note: "both solver modes emit byte-identical suites (tests/determinism.rs \
               checks this at the same job counts); the comparison is pure cost. \
               Exploration is CPU-bound, so the attainable parallel speedup is \
               bounded by host_cpus; on a single-core host the interesting numbers \
               are the fresh-vs-incremental ratio at jobs=1 and the engine \
               counters (spine roots reused vs blasted, conflicts per check, \
               solve seconds) that explain it",
        results,
    };
    let rendered = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_testgen.json");
    eprintln!("wrote {out_path}");
}
