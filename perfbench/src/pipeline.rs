//! One in-process generation request: compile, generate, render the STF
//! suite, and validate every emitted test on the software model (interp)
//! and on the reference evaluator (refeval).
//!
//! Each step is one call into a layer's public API. The traced run wraps
//! each call in a span; the timed run makes the same calls without one.
//! Interp validates against the IR the engine ran (`Testgen::prog`).
//! Refeval needs the typed AST, which `CompiledProgram::build` does not
//! keep, so every request also calls the frontend once for it. Only a
//! traced request calls `lower` + `optimize` on their own as well, to time
//! the IR layer in its own span.

use crate::trace::{span, Tracer};
use p4t_refeval::{
    self as refeval, RefArch, RefEntry, RefExpect, RefExpectedOutput, RefInput, RefKey,
    RefRegister, RefVerdict,
};
use p4testgen::backends::{StfBackend, TestBackend};
use p4testgen::core::{
    CompiledProgram, KeyMatch, SolverMode, Target, TestSpec, Testgen, TestgenConfig,
};
use p4testgen::interp::{execute_and_check_counted, Arch, FaultSet, Verdict};
use p4testgen::obs::Registry;
use p4testgen::targets::{Tofino, V1Model};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tgt {
    V1Model,
    Tna,
}

impl Tgt {
    pub fn name(self) -> &'static str {
        match self {
            Tgt::V1Model => "v1model",
            Tgt::Tna => "tna",
        }
    }

    pub fn parse(s: &str) -> Tgt {
        match s {
            "tna" => Tgt::Tna,
            _ => Tgt::V1Model,
        }
    }
}

/// One generation request: a program (display name, target, source) and
/// the value-selection seed.
#[derive(Clone, Debug)]
pub struct Request {
    pub name: String,
    pub target: Tgt,
    pub source: Arc<str>,
    pub seed: u64,
}

/// The configuration every benchmark request runs under: the golden one
/// (`max_tests` 0, one worker) with the seed varied. Knobs that otherwise
/// default from the environment are pinned.
pub fn config(seed: u64) -> TestgenConfig {
    let mut c = TestgenConfig::default();
    c.seed = seed;
    c.jobs = 1;
    c.max_tests = 0;
    c.solver_budget = 0;
    c.solver_mode = SolverMode::Incremental;
    c.deadline = None;
    c
}

/// Engine counters that repeat exactly at `jobs = 1` for a fixed request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub paths: u64,
    pub tests: u64,
    pub checks: u64,
    pub model_checks: u64,
    pub feasibility_checks: u64,
    pub sat_propagations: u64,
    /// Only known when a metrics registry was attached.
    pub pool_terms: Option<u64>,
    pub coverage_pct: f64,
}

/// Everything else the traced run folds into per-layer metrics.
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    pub solve: Duration,
    pub sat: Duration,
    pub stepping: Duration,
    pub emission: Duration,
    pub infeasible_paths: u64,
    pub warm_rebuilds: u64,
    pub roots_reused: u64,
    pub roots_blasted: u64,
    pub blast_hits: u64,
    pub blast_misses: u64,
    pub learnt_imported: u64,
    pub memo_hits: u64,
    pub memo_lookups: u64,
    pub suite_bytes: u64,
    pub source_bytes: u64,
    pub ir_stmts: u64,
    pub interp_statements: u64,
    pub interp_pass: u64,
    pub refeval_agree: u64,
    pub refeval_unsupported: u64,
}

pub struct Outcome {
    /// The rendered suite; `None` when the request failed before rendering.
    pub suite: Option<String>,
    pub counters: Counters,
    pub layer: LayerSample,
    /// Operations attempted (the request, each emitted test) and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Emitted tests that passed both interp and refeval.
    pub validated: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    fn failed_request(msg: String) -> Outcome {
        Outcome {
            suite: None,
            counters: Counters::default(),
            layer: LayerSample::default(),
            attempted: 1,
            failed: 1,
            validated: 0,
            errors: vec![msg],
        }
    }

    /// Count one suite comparison against its reference.
    pub fn compare(&mut self, what: &str, reference: &str) {
        self.attempted += 1;
        if self.suite.as_deref() != Some(reference) {
            self.failed += 1;
            self.errors
                .push(format!("{what}: suite differs from its reference"));
        }
    }
}

/// Run one request. `tracer` records layer spans; `registry` attaches a
/// metrics registry to the engine (traced runs and counter probes only).
pub fn execute(req: &Request, tracer: Option<&mut Tracer>, registry: bool) -> Outcome {
    match req.target {
        Tgt::V1Model => execute_typed(
            req,
            V1Model::new(),
            Arch::V1Model,
            RefArch::V1Model,
            tracer,
            registry,
        ),
        Tgt::Tna => execute_typed(
            req,
            Tofino::tna(),
            Arch::Tna,
            RefArch::Tna,
            tracer,
            registry,
        ),
    }
}

fn execute_typed<T: Target>(
    req: &Request,
    target: T,
    arch: Arch,
    ref_arch: RefArch,
    mut tr: Option<&mut Tracer>,
    registry: bool,
) -> Outcome {
    let full = format!("{}\n{}", target.prelude(), req.source);
    let checked = match span(&mut tr, "frontend", || p4testgen::frontend::frontend(&full)) {
        Ok(c) => c,
        Err(d) => {
            return Outcome::failed_request(format!(
                "{}: frontend: {} diagnostic(s)",
                req.name,
                d.len()
            ))
        }
    };
    if tr.is_some() {
        let ir = span(&mut tr, "ir", || {
            p4testgen::ir::lower(&checked).map(|mut prog| {
                p4testgen::ir::optimize(&mut prog);
                prog
            })
        });
        if let Err(d) = ir {
            return Outcome::failed_request(format!(
                "{}: lowering: {} diagnostic(s)",
                req.name,
                d.len()
            ));
        }
    }
    let compiled = match span(&mut tr, "core.build", || {
        CompiledProgram::build(&req.source, &target)
    }) {
        Ok(c) => c,
        Err(e) => return Outcome::failed_request(format!("{}: build: {e}", req.name)),
    };
    let mut cfg = config(req.seed);
    let reg = registry.then(|| Arc::new(Registry::new()));
    cfg.obs.metrics = reg.clone();
    let mut tg = span(&mut tr, "core.from_compiled", || {
        Testgen::from_compiled(&req.name, compiled, target, cfg)
    });
    let mut tests: Vec<TestSpec> = Vec::new();
    let run = span(&mut tr, "core.run", || {
        tg.try_run(|t| {
            tests.push(t.clone());
            true
        })
    });
    let summary = match run {
        Ok(s) => s,
        Err(e) => return Outcome::failed_request(format!("{}: run: {e}", req.name)),
    };
    let suite = span(&mut tr, "backends.render", || StfBackend.emit_suite(&tests));

    let mut out = Outcome {
        suite: None,
        counters: Counters::default(),
        layer: LayerSample::default(),
        attempted: 1,
        failed: 0,
        validated: 0,
        errors: Vec::new(),
    };
    let e = &summary.errors;
    if e.panicked_paths > 0 || e.deadline_expired || e.unknown_queries > 0 {
        out.failed += 1;
        out.errors.push(format!("{}: degraded run: {e}", req.name));
    }

    let (ir, bound) = (&tg.prog, tg.config.interp_parser_loop_bound);
    let l = &mut out.layer;
    for spec in &tests {
        let (verdict, stats) = span(&mut tr, "interp.validate", || {
            execute_and_check_counted(ir, arch, FaultSet::none(), spec, bound)
        });
        let rv = span(&mut tr, "refeval.eval", || {
            let run = refeval::evaluate(&checked, ref_arch, &ref_input(spec), bound);
            refeval::check(&ref_expect(spec), &run)
        });
        l.interp_statements += stats.statements;
        let interp_ok = verdict == Verdict::Pass;
        let ref_ok = rv == RefVerdict::Pass;
        l.interp_pass += u64::from(interp_ok);
        l.refeval_agree += u64::from(interp_ok == ref_ok);
        l.refeval_unsupported += u64::from(matches!(rv, RefVerdict::Unsupported(_)));
        out.attempted += 1;
        if interp_ok && ref_ok {
            out.validated += 1;
        } else {
            out.failed += 1;
            out.errors.push(format!(
                "{} test {}: interp {verdict}, refeval {}",
                req.name,
                spec.id,
                rv.kind()
            ));
        }
    }

    let (solve, sat, sat_stats) = tg.solver_stats();
    let inc = &summary.solver;
    let feasibility = inc.warm_checks + inc.fresh_fallbacks;
    out.counters = Counters {
        paths: summary.paths_explored,
        tests: summary.tests,
        checks: summary.solver_checks,
        model_checks: summary.solver_checks - feasibility,
        feasibility_checks: feasibility,
        sat_propagations: sat_stats.propagations,
        pool_terms: reg
            .as_ref()
            .map(|r| r.gauge_value("p4testgen_pool_terms", &[]).unwrap_or(0)),
        coverage_pct: summary.coverage.percent,
    };
    l.solve = solve;
    l.sat = sat;
    l.stepping = summary.phases.stepping;
    l.emission = summary.phases.emission;
    l.infeasible_paths = summary.infeasible_paths;
    l.warm_rebuilds = inc.rebuilds;
    l.roots_reused = inc.roots_reused;
    l.roots_blasted = inc.roots_blasted;
    l.blast_hits = inc.blast_cache_hits;
    l.blast_misses = inc.blast_cache_misses;
    l.learnt_imported = inc.learnt_imported;
    l.memo_hits = summary.memo_hits;
    l.memo_lookups = reg.as_ref().map_or(0, |r| {
        r.counter_value("p4testgen_memo_lookups_total", &[])
            .unwrap_or(0)
    });
    l.suite_bytes = suite.len() as u64;
    l.source_bytes = req.source.len() as u64;
    l.ir_stmts = tg.prog.num_statements() as u64;
    out.suite = Some(suite);
    out
}

fn ref_input(spec: &TestSpec) -> RefInput {
    RefInput {
        input_port: spec.input_port,
        input_packet: spec.input_packet.clone(),
        entries: spec
            .entries
            .iter()
            .map(|e| RefEntry {
                table: e.table.clone(),
                keys: e
                    .keys
                    .iter()
                    .map(|k| match k {
                        KeyMatch::Exact { value, .. } => RefKey::Exact {
                            value: value.clone(),
                        },
                        KeyMatch::Ternary { value, mask, .. } => RefKey::Ternary {
                            value: value.clone(),
                            mask: mask.clone(),
                        },
                        KeyMatch::Lpm {
                            value, prefix_len, ..
                        } => RefKey::Lpm {
                            value: value.clone(),
                            prefix_len: *prefix_len,
                        },
                        KeyMatch::Range { lo, hi, .. } => RefKey::Range {
                            lo: lo.clone(),
                            hi: hi.clone(),
                        },
                        KeyMatch::Optional { value, .. } => RefKey::Optional {
                            value: value.clone(),
                        },
                    })
                    .collect(),
                action: e.action.clone(),
                action_args: e.action_args.iter().map(|(_, v)| v.clone()).collect(),
                priority: e.priority,
            })
            .collect(),
        register_init: spec
            .register_init
            .iter()
            .map(|r| RefRegister {
                instance: r.instance.clone(),
                index: r.index,
                value: r.value.clone(),
            })
            .collect(),
    }
}

fn ref_expect(spec: &TestSpec) -> RefExpect {
    RefExpect {
        expects_drop: spec.expects_drop(),
        outputs: spec
            .outputs
            .iter()
            .map(|o| RefExpectedOutput {
                port: o.port,
                data: o.packet.data.clone(),
                mask: Some(o.packet.mask.clone()),
            })
            .collect(),
        registers: spec
            .register_expect
            .iter()
            .map(|r| RefRegister {
                instance: r.instance.clone(),
                index: r.index,
                value: r.value.clone(),
            })
            .collect(),
    }
}
