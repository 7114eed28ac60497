//! Solver facade: scoped assertions, model extraction, solve statistics,
//! and the engine's two checking disciplines — history-free per check on a
//! recycled instance for model-bearing queries, warm incremental spine
//! solving for feasibility verdicts.
//!
//! This is the interface the symbolic executor talks to — the analogue of
//! the paper's "Z3 configured with incremental solving". Two kinds of query
//! coexist behind one API, and the split is what reconciles incremental
//! speed with deterministic output:
//!
//! * [`Solver::check_assuming`] (and [`Solver::check`]) are **model-bearing
//!   and history-free per check on a recycled instance**: the solver keeps
//!   one [`SatSolver`] + [`Blaster`] pair, resets both to the new-instance
//!   state ([`SatSolver::reset`], [`Blaster::reset`]; allocations are kept,
//!   contents are not), encodes the cone of the constraint set, solves, and
//!   keeps the pair for model extraction. CNF variables are numbered by the
//!   blaster's structural traversal of that cone alone, and the reset
//!   instance replays the same `new_var`/`add_clause` sequence a new one
//!   would, so clause order, watch order, VSIDS heap and phases — and hence
//!   the model — are a pure function of the constraint set, never of what
//!   this worker (or any other) solved before. Every byte of an emitted
//!   test descends from one of these checks, which is what keeps suites
//!   byte-identical across job counts *and across solver modes*.
//!
//!   Recycling removes only allocation, which dominated: a check builds
//!   about 900 variables and clauses from a few dozen term nodes. Cloning
//!   a snapshot taken after the shared constraint prefix was measured at
//!   twice the cost of encoding from scratch and rejected (DESIGN.md,
//!   "Incremental spine solving").
//!
//! * [`Solver::check_feasible`] is **verdict-only**. In
//!   [`SolverMode::Incremental`] (the default) the solver keeps one warm
//!   [`SatSolver`] + [`Blaster`] pair whose clause database mirrors the
//!   worker's DFS spine. Pushing a branch constraint blasts only its new
//!   cone; the constraint's blasted root literal doubles as its
//!   **activation literal**: the Tseitin definitions enter the database
//!   unguarded (definitional clauses are satisfiable on their own and never
//!   constrain the original variables), and the constraint is *enforced*
//!   only while its root literal is passed as a solve assumption.
//!   Backtracking therefore retracts by dropping literals from the
//!   assumption set — no clause deletion, no rebuild. Sat/Unsat are
//!   semantic facts about the constraint set, so sharing a clause database
//!   across checks cannot change them; it only changes how fast they are
//!   reached.
//!
//! The old history-free-everywhere design was motivated by a real
//! problem: a monotonically growing instance forces every solve to assign
//! every Tseitin variable ever created by any path, so solving scaled with
//! the *total* work of the run. The warm core bounds that instead of
//! avoiding it: per-root cone costs are tracked, and when the database
//! grows past a small multiple of the current check's live cone (retired
//! subtrees' garbage dominating), the core is **rebuilt** from the current
//! constraint set — the same cone restriction Z3's incremental mode
//! performs internally, made explicit and deterministic.
//!
//! In front of the warm blaster sits a term-level simplification pass
//! ([`crate::simplify`]): constant folding over the conjunction, equality
//! substitution along the trail, and — because rewritten terms re-intern
//! into the hash-consed pool — a blast cache keyed on *simplified*
//! structure. A constraint that folds to constant false decides the check
//! with no SAT call at all. The pass preserves satisfiability, not models,
//! which is exactly why it is confined to the verdict-only path.
//!
//! The history-free path (the recycled instance) is still used, even under
//! [`SolverMode::Incremental`], when:
//!
//! * the query is model-bearing (`check`/`check_assuming`) — emission,
//!   concolic resolution, and random-proposal re-checks;
//! * a per-query budget is set — budgeted Unknown verdicts depend on search
//!   history, and a warm core would make them schedule-dependent;
//! * a phase-seed retry is active (the engine's rotate-and-retry after
//!   Unknown) — the scrambled phases must apply to a history-free search;
//! * the engine recovers from an isolated path panic ([`Solver::reset_warm`])
//!   — the warm core may have been abandoned mid-push.

use crate::blast::Blaster;
use crate::eval::Assignment;
use crate::sat::{Lit, SatResult, SatSolver, SolveBudget};
use crate::simplify::{simplify_conjunction, Simplified, SimplifyStats};
use crate::term::{TermId, TermPool, VarId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Result of a `check` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckResult {
    Sat,
    Unsat,
    /// The per-query budget was exhausted before a verdict. The paper's
    /// P4Testgen gets the same tri-state from Z3 timeouts and abandons the
    /// path; callers here must do likewise (a model after Unknown is
    /// meaningless — every unfixed variable reads as zero).
    Unknown,
}

/// How feasibility checks are solved. Model-bearing checks are always
/// history-free per check on a recycled instance, regardless of mode (see
/// the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverMode {
    /// Every check runs history-free on the recycled instance (the
    /// pre-incremental behavior; also the reference the determinism suite
    /// compares against).
    Fresh,
    /// Feasibility checks reuse a warm per-worker SAT core along the DFS
    /// spine (the default).
    #[default]
    Incremental,
}

impl SolverMode {
    /// Parse a CLI/env spelling.
    pub fn parse(s: &str) -> Option<SolverMode> {
        match s {
            "fresh" => Some(SolverMode::Fresh),
            "incremental" => Some(SolverMode::Incremental),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            SolverMode::Fresh => "fresh",
            SolverMode::Incremental => "incremental",
        }
    }
}

/// Upper bounds (inclusive) for the conflicts-per-check histogram in
/// [`SolverStats`]; an implicit overflow bucket follows the last bound.
/// `le=0` is its own bucket because conflict-free checks are the common
/// case on packet-program path constraints — the histogram's whole point
/// is to show how heavy that head is versus the hard tail.
pub const CONFLICTS_PER_CHECK_BOUNDS: [u64; 8] = [0, 1, 2, 4, 16, 64, 256, 1024];

/// Upper bounds (inclusive) for the per-check spine-reuse histograms in
/// [`IncrementalStats`] (assertions reused from the warm core vs newly
/// blasted); an implicit overflow bucket follows the last bound.
pub const SPINE_PER_CHECK_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Cumulative timing and counter statistics, read by the Fig. 7 harness and
/// folded into the metrics registry by the exploration engine.
#[derive(Default, Clone, Debug)]
pub struct SolverStats {
    pub checks: u64,
    pub sat_results: u64,
    pub unsat_results: u64,
    /// Checks that exhausted their budget without a verdict.
    pub unknown_results: u64,
    /// Wall time spent inside `check` (bit-blasting + SAT search).
    pub solve_time: Duration,
    /// Wall time spent purely in the SAT search.
    pub sat_time: Duration,
    /// Wall time of model-bearing checks from check start to solve start:
    /// resetting the recycled instance and blasting the constraint set.
    /// Part of `solve_time - sat_time`.
    pub model_encode_time: Duration,
    /// Non-cumulative histogram of SAT conflicts per check: cell `i` counts
    /// checks with `conflicts <= CONFLICTS_PER_CHECK_BOUNDS[i]`; the final
    /// cell is the overflow. Per-check conflict deltas are exact in both
    /// modes (warm cores snapshot their counters around each solve).
    pub conflicts_per_check_hist: [u64; CONFLICTS_PER_CHECK_BOUNDS.len() + 1],
}

/// Counters for the incremental layer (warm spine core, simplifier, blast
/// cache), folded into the metrics registry
/// and `--summary-json` by the exploration engine.
#[derive(Default, Clone, Debug)]
pub struct IncrementalStats {
    /// Feasibility checks answered by the warm spine core.
    pub warm_checks: u64,
    /// Feasibility checks that fell back to the history-free recycled
    /// instance while in incremental mode (budgeted query, phase-seed retry).
    pub fresh_fallbacks: u64,
    /// Warm-core rebuilds triggered by the garbage-growth policy (or by
    /// defensive recovery).
    pub rebuilds: u64,
    /// Spine constraints whose encoding was reused from the warm core.
    pub roots_reused: u64,
    /// Spine constraints blasted for the first time (or after a rebuild).
    pub roots_blasted: u64,
    /// Per-check histograms of the two counters above (bounds:
    /// [`SPINE_PER_CHECK_BOUNDS`], final cell overflow).
    pub reused_per_check_hist: [u64; SPINE_PER_CHECK_BOUNDS.len() + 1],
    pub blasted_per_check_hist: [u64; SPINE_PER_CHECK_BOUNDS.len() + 1],
    /// Blaster term-cache hits/misses, across fresh and warm instances.
    pub blast_cache_hits: u64,
    pub blast_cache_misses: u64,
    /// Term-simplification counters (warm path only).
    pub simplify: SimplifyStats,
    /// Always 0: workers do not exchange learnt clauses. Kept so that
    /// existing readers of the field still build.
    pub learnt_imported: u64,
}

impl IncrementalStats {
    pub fn absorb(&mut self, other: &IncrementalStats) {
        self.warm_checks += other.warm_checks;
        self.fresh_fallbacks += other.fresh_fallbacks;
        self.rebuilds += other.rebuilds;
        self.roots_reused += other.roots_reused;
        self.roots_blasted += other.roots_blasted;
        for (t, o) in
            self.reused_per_check_hist.iter_mut().zip(other.reused_per_check_hist.iter())
        {
            *t += o;
        }
        for (t, o) in
            self.blasted_per_check_hist.iter_mut().zip(other.blasted_per_check_hist.iter())
        {
            *t += o;
        }
        self.blast_cache_hits += other.blast_cache_hits;
        self.blast_cache_misses += other.blast_cache_misses;
        self.simplify.absorb(&other.simplify);
    }
}

// ---- the warm spine core ------------------------------------------------

/// Rebuild when the database holds more than this multiple of the current
/// check's live-cone variables (plus slack) — retired subtrees' Tseitin
/// garbage would otherwise make every solve pay for the whole run.
const REBUILD_GROWTH_FACTOR: u64 = 3;
const REBUILD_SLACK_VARS: u64 = 512;

/// One worker's warm SAT core: solver, blaster, and the spine bookkeeping.
struct WarmCore {
    sat: SatSolver,
    blaster: Blaster,
    /// Activation (root) literal per constraint term ever pushed.
    root_lits: HashMap<TermId, Lit>,
    /// SAT variables created while blasting each root's cone — shared
    /// subterms are attributed to the first root that reached them. The
    /// sum over a check's roots estimates its live cone for the rebuild
    /// policy.
    root_cost: HashMap<TermId, u64>,
}

impl WarmCore {
    fn new() -> Self {
        let mut sat = SatSolver::new();
        let blaster = Blaster::new(&mut sat);
        WarmCore {
            sat,
            blaster,
            root_lits: HashMap::new(),
            root_cost: HashMap::new(),
        }
    }

    /// Get-or-blast the activation literal for a constraint root. Returns
    /// `(lit, reused)`.
    fn root_lit(&mut self, pool: &TermPool, t: TermId) -> (Lit, bool) {
        if let Some(&l) = self.root_lits.get(&t) {
            return (l, true);
        }
        let vars_before = self.sat.num_vars() as u64;
        let l = self.blaster.assertion_lit(&mut self.sat, pool, t);
        let cost = (self.sat.num_vars() as u64 - vars_before).max(1);
        self.root_lits.insert(t, l);
        self.root_cost.insert(t, cost);
        (l, false)
    }
}

/// Bitvector solver with scoped assertions.
pub struct Solver {
    /// Terms asserted, partitioned into scopes by `scope_marks`.
    asserted_terms: Vec<TermId>,
    scope_marks: Vec<usize>,
    /// The SAT instance and blaster of the most recent history-free check,
    /// kept for model extraction and reset for reuse by the next one.
    last: Option<(SatSolver, Blaster)>,
    /// Accumulated SAT-core statistics across all checks.
    sat_totals: crate::sat::SatStats,
    /// Per-query resource budget (unlimited by default).
    budget: SolveBudget,
    /// Initial-phase scramble seed for the next checks (0 = default phases).
    phase_seed: u64,
    /// Feasibility-check discipline (model-bearing checks ignore this).
    mode: SolverMode,
    /// The warm spine core, lazily created on the first warm check.
    warm: Option<WarmCore>,
    pub stats: SolverStats,
    pub inc_stats: IncrementalStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    pub fn new() -> Self {
        Solver {
            asserted_terms: Vec::new(),
            scope_marks: Vec::new(),
            last: None,
            sat_totals: crate::sat::SatStats::default(),
            budget: SolveBudget::UNLIMITED,
            phase_seed: 0,
            mode: SolverMode::default(),
            warm: None,
            stats: SolverStats::default(),
            inc_stats: IncrementalStats::default(),
        }
    }

    /// Set the per-query resource budget applied to every subsequent check.
    /// Budget exhaustion surfaces as [`CheckResult::Unknown`].
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    pub fn budget(&self) -> SolveBudget {
        self.budget
    }

    /// Select the feasibility-check discipline (see [`SolverMode`]).
    pub fn set_mode(&mut self, mode: SolverMode) {
        self.mode = mode;
    }

    pub fn mode(&self) -> SolverMode {
        self.mode
    }

    /// Discard the warm spine core. The engine calls this after recovering
    /// from an isolated path panic — the core may have been abandoned
    /// mid-push, and the next warm check deterministically rebuilds it from
    /// that check's own constraint set.
    pub fn reset_warm(&mut self) {
        self.warm = None;
    }

    /// Scramble initial decision phases for subsequent checks (0 restores
    /// the default). Used to retry an Unknown query along a different
    /// search order; while a non-zero seed is set, feasibility checks run
    /// history-free per check so the scramble applies to a history-free
    /// search and stays fully deterministic.
    pub fn set_phase_seed(&mut self, seed: u64) {
        self.phase_seed = seed;
    }

    /// Open a new assertion scope.
    pub fn push(&mut self) {
        self.scope_marks.push(self.asserted_terms.len());
    }

    /// Discard all assertions added since the matching `push`.
    pub fn pop(&mut self) {
        let mark = self.scope_marks.pop().expect("pop without matching push");
        self.asserted_terms.truncate(mark);
    }

    /// Current scope depth.
    pub fn depth(&self) -> usize {
        self.scope_marks.len()
    }

    /// Assert a 1-bit term in the current scope.
    pub fn assert(&mut self, pool: &TermPool, t: TermId) {
        assert_eq!(pool.width(t), 1, "assertions must be 1-bit terms");
        self.asserted_terms.push(t);
    }

    /// Check satisfiability of all assertions in all scopes.
    pub fn check(&mut self, pool: &TermPool) -> CheckResult {
        self.check_assuming(pool, &[])
    }

    /// Model-bearing check with extra transient assumptions (1-bit terms).
    /// History-free per check on a recycled instance: the verdict *and the
    /// model* are a pure function of the constraint set (plus budget and
    /// phase seed) — this is the only check whose model may be read
    /// afterwards.
    pub fn check_assuming(&mut self, pool: &TermPool, extra: &[TermId]) -> CheckResult {
        let (res, encode) = self.check_recycled(pool, extra);
        self.stats.model_encode_time += encode;
        res
    }

    /// Check `asserted ∧ extra` on the recycled instance, which is reset to
    /// the new-instance state first and kept afterwards for model
    /// extraction. Returns the verdict and the time from check start to
    /// solve start.
    fn check_recycled(&mut self, pool: &TermPool, extra: &[TermId]) -> (CheckResult, Duration) {
        let t0 = Instant::now();
        let (mut sat, mut blaster) = match self.last.take() {
            Some((mut sat, mut blaster)) => {
                sat.reset();
                blaster.reset(&mut sat);
                (sat, blaster)
            }
            None => {
                let mut sat = SatSolver::new();
                let blaster = Blaster::new(&mut sat);
                (sat, blaster)
            }
        };
        let mut ok = true;
        for &t in self.asserted_terms.iter().chain(extra) {
            debug_assert_eq!(pool.width(t), 1, "assumptions must be 1-bit terms");
            let l = blaster.assertion_lit(&mut sat, pool, t);
            if !sat.add_clause(&[l]) {
                ok = false;
                break;
            }
        }
        let t1 = Instant::now();
        let res = if ok {
            sat.seed_phases(self.phase_seed);
            sat.solve_budgeted(&[], &self.budget)
        } else {
            SatResult::Unsat
        };
        self.stats.sat_time += t1.elapsed();
        self.stats.checks += 1;
        self.stats.conflicts_per_check_hist
            [CONFLICTS_PER_CHECK_BOUNDS.partition_point(|&b| b < sat.stats.conflicts)] += 1;
        self.inc_stats.blast_cache_hits += blaster.stats.cache_hits;
        self.inc_stats.blast_cache_misses += blaster.stats.cache_misses;
        accumulate(&mut self.sat_totals, &sat.stats);
        self.last = Some((sat, blaster));
        self.stats.solve_time += t0.elapsed();
        (self.count_result(res), t1 - t0)
    }

    /// Verdict-only feasibility check of `asserted ∧ extra`. In incremental
    /// mode (with no budget and no phase-seed retry active) the query runs
    /// on the warm spine core; otherwise it behaves exactly like
    /// [`Solver::check_assuming`]. The model state afterwards is
    /// **unspecified** — callers needing a model must issue a model-bearing
    /// check.
    pub fn check_feasible(&mut self, pool: &TermPool, extra: &[TermId]) -> CheckResult {
        let warm_eligible = self.mode == SolverMode::Incremental
            && self.budget.is_unlimited()
            && self.phase_seed == 0;
        if !warm_eligible {
            if self.mode == SolverMode::Incremental {
                self.inc_stats.fresh_fallbacks += 1;
            }
            return self.check_recycled(pool, extra).0;
        }
        self.check_warm(pool, extra)
    }

    fn check_warm(&mut self, pool: &TermPool, extra: &[TermId]) -> CheckResult {
        let t0 = Instant::now();
        self.stats.checks += 1;
        self.inc_stats.warm_checks += 1;
        // Term-level simplification over the whole conjunction. A constant-
        // false residue is a verdict with no SAT work at all.
        let all: Vec<TermId> =
            self.asserted_terms.iter().chain(extra).copied().collect();
        let roots = match simplify_conjunction(pool, &all, &mut self.inc_stats.simplify) {
            Simplified::False => {
                self.stats.conflicts_per_check_hist[0] += 1;
                self.stats.solve_time += t0.elapsed();
                return self.count_result(SatResult::Unsat);
            }
            Simplified::Constraints(cs) => cs,
        };
        let mut core = match self.warm.take() {
            Some(w) if w.sat.is_ok() => w,
            _ => WarmCore::new(),
        };
        // Rebuild policy: estimate this check's live cone from the recorded
        // per-root costs; when the database has grown well past it, the
        // garbage from retired subtrees dominates and a rebuild makes every
        // subsequent solve proportional to the live spine again.
        let live: u64 = roots.iter().filter_map(|t| core.root_cost.get(t)).sum();
        let total = core.sat.num_vars() as u64;
        if !core.root_lits.is_empty()
            && total > live.saturating_mul(REBUILD_GROWTH_FACTOR) + REBUILD_SLACK_VARS
        {
            self.inc_stats.rebuilds += 1;
            core = WarmCore::new();
        }
        // Advance the spine: reuse already-pushed constraints, blast only
        // the new cones. Each root literal is the constraint's activation
        // literal, enforced by passing it as an assumption below.
        let blast_hits0 = core.blaster.stats.cache_hits;
        let blast_miss0 = core.blaster.stats.cache_misses;
        let mut assumptions = Vec::with_capacity(roots.len());
        let mut reused = 0u64;
        let mut blasted = 0u64;
        for &c in &roots {
            let (l, hit) = core.root_lit(pool, c);
            if hit {
                reused += 1;
            } else {
                blasted += 1;
            }
            assumptions.push(l);
        }
        self.inc_stats.roots_reused += reused;
        self.inc_stats.roots_blasted += blasted;
        self.inc_stats.reused_per_check_hist
            [SPINE_PER_CHECK_BOUNDS.partition_point(|&b| b < reused)] += 1;
        self.inc_stats.blasted_per_check_hist
            [SPINE_PER_CHECK_BOUNDS.partition_point(|&b| b < blasted)] += 1;
        self.inc_stats.blast_cache_hits += core.blaster.stats.cache_hits - blast_hits0;
        self.inc_stats.blast_cache_misses += core.blaster.stats.cache_misses - blast_miss0;
        if !core.sat.is_ok() {
            // Defensive: the definitional database can never conflict at
            // level 0; if it somehow did, rebuild and re-push this check's
            // roots so the verdict stays correct.
            self.inc_stats.rebuilds += 1;
            core = WarmCore::new();
            assumptions.clear();
            for &c in &roots {
                assumptions.push(core.root_lit(pool, c).0);
            }
        }
        let t1 = Instant::now();
        let conflicts0 = core.sat.stats.conflicts;
        let sat_before = core.sat.stats.clone();
        let res = core.sat.solve_budgeted(&assumptions, &SolveBudget::UNLIMITED);
        self.stats.sat_time += t1.elapsed();
        self.stats.conflicts_per_check_hist[CONFLICTS_PER_CHECK_BOUNDS
            .partition_point(|&b| b < core.sat.stats.conflicts - conflicts0)] += 1;
        accumulate_delta(&mut self.sat_totals, &sat_before, &core.sat.stats);
        self.warm = Some(core);
        self.stats.solve_time += t0.elapsed();
        self.count_result(res)
    }

    fn count_result(&mut self, res: SatResult) -> CheckResult {
        match res {
            SatResult::Sat => {
                self.stats.sat_results += 1;
                CheckResult::Sat
            }
            SatResult::Unsat => {
                self.stats.unsat_results += 1;
                CheckResult::Unsat
            }
            SatResult::Unknown => {
                self.stats.unknown_results += 1;
                CheckResult::Unknown
            }
        }
    }

    /// Model value of one variable after a Sat check. Variables that did not
    /// occur in the checked formula evaluate to zero.
    pub fn model_value(&self, pool: &TermPool, v: VarId) -> crate::bitvec::BitVec {
        match &self.last {
            Some((sat, blaster)) => blaster.model_value(sat, pool, v),
            None => crate::bitvec::BitVec::zeros(pool.var_info(v).width),
        }
    }

    /// Full model over the given variables after a Sat check.
    pub fn model(&self, pool: &TermPool, vars: &[VarId]) -> Assignment {
        let mut asg = Assignment::new();
        for &v in vars {
            asg.set(v, self.model_value(pool, v));
        }
        asg
    }

    /// Model over every variable mentioned in the current assertions.
    pub fn model_of_assertions(&self, pool: &TermPool) -> Assignment {
        let mut vars = Vec::new();
        for &t in &self.asserted_terms {
            vars.extend(pool.vars_of(t));
        }
        vars.sort();
        vars.dedup();
        self.model(pool, &vars)
    }

    /// The asserted terms, outermost scope first (diagnostics).
    pub fn assertions(&self) -> &[TermId] {
        &self.asserted_terms
    }

    /// SAT-core statistics accumulated over all checks.
    pub fn sat_stats(&self) -> &crate::sat::SatStats {
        &self.sat_totals
    }
}

fn accumulate(total: &mut crate::sat::SatStats, one: &crate::sat::SatStats) {
    total.decisions += one.decisions;
    total.propagations += one.propagations;
    total.conflicts += one.conflicts;
    total.restarts += one.restarts;
    total.learnt_clauses += one.learnt_clauses;
    total.learnt_literals += one.learnt_literals;
    for (t, o) in total.learnt_size_hist.iter_mut().zip(one.learnt_size_hist.iter()) {
        *t += o;
    }
}

/// Accumulate the delta between two snapshots of a live solver's counters
/// (the warm core's stats are cumulative across checks).
fn accumulate_delta(
    total: &mut crate::sat::SatStats,
    before: &crate::sat::SatStats,
    after: &crate::sat::SatStats,
) {
    total.decisions += after.decisions - before.decisions;
    total.propagations += after.propagations - before.propagations;
    total.conflicts += after.conflicts - before.conflicts;
    total.restarts += after.restarts - before.restarts;
    total.learnt_clauses += after.learnt_clauses - before.learnt_clauses;
    total.learnt_literals += after.learnt_literals - before.learnt_literals;
    for ((t, b), a) in total
        .learnt_size_hist
        .iter_mut()
        .zip(before.learnt_size_hist.iter())
        .zip(after.learnt_size_hist.iter())
    {
        *t += a - b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;

    #[test]
    fn push_pop_restores_satisfiability() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c5 = pool.const_u128(8, 5);
        let c6 = pool.const_u128(8, 6);
        let eq5 = pool.eq(x, c5);
        let eq6 = pool.eq(x, c6);
        s.assert(&pool, eq5);
        assert_eq!(s.check(&pool), CheckResult::Sat);
        s.push();
        s.assert(&pool, eq6);
        assert_eq!(s.check(&pool), CheckResult::Unsat);
        s.pop();
        assert_eq!(s.check(&pool), CheckResult::Sat);
        let m = s.model_of_assertions(&pool);
        assert!(eval(&pool, &m, eq5).is_true());
    }

    #[test]
    fn nested_scopes() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 4);
        let lims: Vec<_> = (1..=3)
            .map(|i| {
                let c = pool.const_u128(4, 1 << i);
                pool.ult(x, c)
            })
            .collect();
        for &l in &lims {
            s.push();
            s.assert(&pool, l);
        }
        assert_eq!(s.depth(), 3);
        assert_eq!(s.check(&pool), CheckResult::Sat);
        s.pop();
        s.pop();
        s.pop();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.check(&pool), CheckResult::Sat);
    }

    #[test]
    fn transient_assumptions() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let zero = pool.const_u128(8, 0);
        let pos = pool.neq(x, zero);
        s.assert(&pool, pos);
        let isz = pool.eq(x, zero);
        assert_eq!(s.check_assuming(&pool, &[isz]), CheckResult::Unsat);
        assert_eq!(s.check(&pool), CheckResult::Sat);
    }

    #[test]
    fn model_satisfies_complex_constraint() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        // (x + y == 0xBEEF) && (x & 0xFF == 0x42)
        let x = pool.fresh_var("x", 16);
        let y = pool.fresh_var("y", 16);
        let sum = pool.add(x, y);
        let beef = pool.const_u128(16, 0xBEEF);
        let c1 = pool.eq(sum, beef);
        let mask = pool.const_u128(16, 0xFF);
        let lowx = pool.and(x, mask);
        let c42 = pool.const_u128(16, 0x42);
        let c2 = pool.eq(lowx, c42);
        s.assert(&pool, c1);
        s.assert(&pool, c2);
        assert_eq!(s.check(&pool), CheckResult::Sat);
        let m = s.model_of_assertions(&pool);
        assert!(eval(&pool, &m, c1).is_true());
        assert!(eval(&pool, &m, c2).is_true());
    }

    #[test]
    fn stats_accumulate() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c = pool.const_u128(8, 9);
        let eq = pool.eq(x, c);
        s.assert(&pool, eq);
        s.check(&pool);
        s.check(&pool);
        assert_eq!(s.stats.checks, 2);
        assert_eq!(s.stats.sat_results, 2);
    }

    /// A 24×24→48-bit factoring constraint: hard enough that a one-conflict
    /// budget can never finish it.
    fn hard_query(pool: &TermPool, s: &mut Solver) {
        let x = pool.fresh_var("x", 48);
        let y = pool.fresh_var("y", 48);
        let prod = pool.mul(x, y);
        // 0xB4D5_2F9E_1D03 = 198341*957463 — force a nontrivial factoring.
        let target = pool.const_u128(48, 198_341u128 * 957_463u128);
        let one = pool.const_u128(48, 1);
        s.assert(pool, pool.eq(prod, target));
        s.assert(pool, pool.ult(one, x));
        s.assert(pool, pool.ult(one, y));
        s.assert(pool, pool.ult(x, y));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        hard_query(&pool, &mut s);
        s.set_budget(crate::sat::SolveBudget::conflicts(2));
        assert_eq!(s.check(&pool), CheckResult::Unknown);
        assert_eq!(s.stats.unknown_results, 1);
        assert_eq!(s.stats.checks, 1);
    }

    #[test]
    fn budgeted_checks_are_deterministic() {
        // Same formula, same budget, same phase seed -> same verdict, every
        // time (budgeted queries always solve on a history-free fresh
        // instance, in either solver mode).
        let outcome = |seed: u64| {
            let pool = TermPool::new();
            let mut s = Solver::new();
            hard_query(&pool, &mut s);
            s.set_budget(crate::sat::SolveBudget::conflicts(50));
            s.set_phase_seed(seed);
            (s.check(&pool), s.check(&pool))
        };
        for seed in [0u64, 7, 0x1234] {
            let (a, b) = outcome(seed);
            assert_eq!(a, b, "seed {seed}: two identical checks disagree");
            let (a2, _) = outcome(seed);
            assert_eq!(a, a2, "seed {seed}: run-to-run nondeterminism");
        }
    }

    #[test]
    fn easy_queries_unaffected_by_budget() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c = pool.const_u128(8, 42);
        s.assert(&pool, pool.eq(x, c));
        s.set_budget(crate::sat::SolveBudget::conflicts(1));
        assert_eq!(s.check(&pool), CheckResult::Sat);
        let m = s.model_of_assertions(&pool);
        assert!(eval(&pool, &m, pool.eq(x, c)).is_true());
    }

    #[test]
    fn model_before_any_check_is_zero() {
        let pool = TermPool::new();
        let s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let crate::term::Node::Var(v) = *pool.node(x) else {
            panic!()
        };
        assert!(s.model_value(&pool, v).is_zero());
    }

    // ---- incremental spine solving --------------------------------------

    /// Sibling-style constraint sequences (shared prefix, one differing
    /// tail) to exercise spine reuse.
    fn spine_family(pool: &TermPool) -> Vec<Vec<TermId>> {
        let x = pool.fresh_var("sx", 16);
        let y = pool.fresh_var("sy", 16);
        let c10 = pool.const_u128(16, 10);
        let c100 = pool.const_u128(16, 100);
        let c7 = pool.const_u128(16, 7);
        let base = vec![pool.ult(x, c100), pool.ult(c10, x)];
        let sum = pool.add(x, y);
        let mut fams = Vec::new();
        for k in 0..6u128 {
            let ck = pool.const_u128(16, 20 + k);
            let mut cs = base.clone();
            cs.push(pool.eq(sum, ck));
            cs.push(pool.ult(y, c7));
            fams.push(cs);
        }
        // A contradictory sibling: x < 100 && x > 100.
        let mut bad = base.clone();
        bad.push(pool.ult(c100, x));
        fams.push(bad);
        fams
    }

    #[test]
    fn incremental_verdicts_match_fresh() {
        let pool = TermPool::new();
        let fams = spine_family(&pool);
        let mut fresh = Solver::new();
        fresh.set_mode(SolverMode::Fresh);
        let mut inc = Solver::new();
        inc.set_mode(SolverMode::Incremental);
        for (i, cs) in fams.iter().enumerate() {
            let f = fresh.check_feasible(&pool, cs);
            let w = inc.check_feasible(&pool, cs);
            assert_eq!(f, w, "family {i}: modes disagree");
        }
        assert_eq!(inc.inc_stats.warm_checks, fams.len() as u64);
        assert!(inc.inc_stats.roots_reused > 0, "siblings must reuse the spine prefix");
        assert_eq!(fresh.inc_stats.warm_checks, 0);
    }

    #[test]
    fn warm_core_reuses_prefix_encodings() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("wx", 32);
        let mut prefix: Vec<TermId> = Vec::new();
        for depth in 0..10u128 {
            let c = pool.const_u128(32, 1000 + depth);
            prefix.push(pool.ult(x, pool.add(pool.constant(crate::bitvec::BitVec::from_u128(
                32, depth,
            )), c)));
            assert_eq!(s.check_feasible(&pool, &prefix), CheckResult::Sat);
        }
        // Every check after the first reuses all prior roots.
        assert_eq!(s.inc_stats.roots_blasted, 10);
        assert_eq!(s.inc_stats.roots_reused, (0..10).sum::<u64>());
    }

    #[test]
    fn simplifier_decides_folded_contradictions_without_sat() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("fx", 8);
        let c1 = pool.const_u128(8, 1);
        let c2 = pool.const_u128(8, 2);
        let cs = vec![pool.eq(x, c1), pool.eq(x, c2)];
        assert_eq!(s.check_feasible(&pool, &cs), CheckResult::Unsat);
        assert!(s.inc_stats.simplify.fast_unsat > 0);
        // No warm core work happened: nothing was blasted.
        assert_eq!(s.inc_stats.roots_blasted, 0);
    }

    #[test]
    fn budgeted_feasibility_falls_back_to_fresh() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        hard_query(&pool, &mut s);
        s.set_budget(crate::sat::SolveBudget::conflicts(2));
        assert_eq!(s.check_feasible(&pool, &[]), CheckResult::Unknown);
        assert_eq!(s.inc_stats.fresh_fallbacks, 1);
        assert_eq!(s.inc_stats.warm_checks, 0);
    }

    #[test]
    fn reset_warm_preserves_verdicts() {
        let pool = TermPool::new();
        let fams = spine_family(&pool);
        let mut s = Solver::new();
        let before: Vec<CheckResult> =
            fams.iter().map(|cs| s.check_feasible(&pool, cs)).collect();
        s.reset_warm();
        let after: Vec<CheckResult> =
            fams.iter().map(|cs| s.check_feasible(&pool, cs)).collect();
        assert_eq!(before, after);
    }

    // ---- the recycled model-bearing instance ------------------------------

    /// One generated constraint over the [`query_vars`] table. Binary
    /// operators zero-extend both sides to 16 bits; `UDivEq`/`URemEq` add
    /// fresh pool variables each time they are blasted.
    #[derive(Clone, Debug)]
    enum Q {
        EqConst(usize, u16),
        Ult(usize, usize),
        AddEq(usize, usize, u16),
        UDivEq(usize, u16, u16),
        URemEq(usize, usize, u16),
        MulNeq(usize, usize, u16),
    }

    #[derive(Clone, Debug)]
    struct Query {
        asserted: Vec<Q>,
        extra: Vec<Q>,
        phase_seed: u64,
        conflict_budget: u64,
        /// Add [`hard_query`]'s factoring constraints.
        hard: bool,
    }

    /// Variables of widths 3, 8, 16 and 8, created in the same order in
    /// every pool so that `VarId`s agree across pools.
    fn query_vars(pool: &TermPool) -> Vec<TermId> {
        [3, 8, 16, 8].iter().enumerate().map(|(i, &w)| pool.fresh_var(format!("q{i}"), w)).collect()
    }

    fn q_term(pool: &TermPool, vars: &[TermId], q: &Q) -> TermId {
        let var = |i: usize| vars[i % vars.len()];
        let wide = |i: usize| pool.zext(var(i), 16);
        let c16 = |c: u16| pool.const_u128(16, u128::from(c));
        match *q {
            Q::EqConst(v, c) => {
                let w = pool.width(var(v));
                pool.eq(var(v), pool.const_u128(w, u128::from(c) & ((1u128 << w) - 1)))
            }
            Q::Ult(a, b) => pool.ult(wide(a), wide(b)),
            Q::AddEq(a, b, c) => pool.eq(pool.add(wide(a), wide(b)), c16(c)),
            Q::UDivEq(a, d, c) => {
                pool.eq(pool.bin(crate::term::BinOp::UDiv, wide(a), c16(d)), c16(c))
            }
            Q::URemEq(a, b, c) => {
                pool.eq(pool.bin(crate::term::BinOp::URem, wide(a), wide(b)), c16(c))
            }
            Q::MulNeq(a, b, c) => pool.neq(pool.mul(wide(a), wide(b)), c16(c)),
        }
    }

    fn run_query(s: &mut Solver, pool: &TermPool, vars: &[TermId], q: &Query) -> CheckResult {
        s.set_phase_seed(q.phase_seed);
        s.set_budget(crate::sat::SolveBudget::conflicts(q.conflict_budget));
        s.push();
        if q.hard {
            hard_query(pool, s);
        }
        for c in &q.asserted {
            s.assert(pool, q_term(pool, vars, c));
        }
        let extra: Vec<TermId> = q.extra.iter().map(|c| q_term(pool, vars, c)).collect();
        let res = s.check_assuming(pool, &extra);
        s.pop();
        res
    }

    /// The exact counters of a solver (everything but the timings).
    fn counters(s: &Solver) -> Vec<u64> {
        let (st, sat) = (&s.stats, &s.sat_totals);
        let mut c = vec![st.checks, st.sat_results, st.unsat_results, st.unknown_results];
        c.extend(st.conflicts_per_check_hist);
        c.extend([s.inc_stats.blast_cache_hits, s.inc_stats.blast_cache_misses]);
        c.extend([sat.decisions, sat.propagations, sat.conflicts, sat.restarts]);
        c.extend([sat.learnt_clauses, sat.learnt_literals]);
        c.extend(sat.learnt_size_hist);
        c
    }

    fn arb_q() -> impl proptest::strategy::Strategy<Value = Q> {
        use proptest::prelude::*;
        prop_oneof![
            (0..4usize, any::<u16>()).prop_map(|(v, c)| Q::EqConst(v, c)),
            (0..4usize, 0..4usize).prop_map(|(a, b)| Q::Ult(a, b)),
            (0..4usize, 0..4usize, any::<u16>()).prop_map(|(a, b, c)| Q::AddEq(a, b, c)),
            (0..4usize, 1..20u16, 0..300u16).prop_map(|(a, d, c)| Q::UDivEq(a, d, c)),
            (0..4usize, 0..4usize, 0..8u16).prop_map(|(a, b, c)| Q::URemEq(a, b, c)),
            (0..4usize, 0..4usize, any::<u16>()).prop_map(|(a, b, c)| Q::MulNeq(a, b, c)),
        ]
    }

    fn arb_query() -> impl proptest::strategy::Strategy<Value = Query> {
        use proptest::prelude::*;
        // Mostly default phases and no budget.
        let seed = prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1..u64::MAX];
        let budget = prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1..40u64];
        (
            proptest::collection::vec(arb_q(), 0..4),
            proptest::collection::vec(arb_q(), 0..3),
            seed,
            budget,
        )
            .prop_map(|(asserted, extra, phase_seed, conflict_budget)| Query {
                asserted,
                extra,
                phase_seed,
                conflict_budget,
                hard: false,
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// A solver that recycles its instance across a sequence of
        /// model-bearing checks answers exactly like a new solver per check:
        /// same verdicts, same model for every pool variable, same counters.
        /// Every sequence holds a check that latches Unsat while encoding, a
        /// phase-seeded check, and a budgeted check that ends Unknown.
        #[test]
        fn recycled_instance_matches_new_solver_per_check(
            queries in proptest::collection::vec(arb_query(), 1..8),
            at in proptest::collection::vec(0..8usize, 3),
            latch_var in 0..4usize,
            latch_c: u16,
            seed in 1..u64::MAX,
        ) {
            let latch = vec![Q::EqConst(latch_var, latch_c), Q::EqConst(latch_var, latch_c ^ 1)];
            let specials = [
                Query {
                    asserted: latch,
                    extra: vec![],
                    phase_seed: 0,
                    conflict_budget: 0,
                    hard: false,
                },
                Query {
                    asserted: vec![Q::Ult(0, 2), Q::URemEq(2, 1, 3)],
                    extra: vec![Q::UDivEq(1, 3, 5)],
                    phase_seed: seed,
                    conflict_budget: 0,
                    hard: false,
                },
                Query {
                    asserted: vec![],
                    extra: vec![],
                    phase_seed: 0,
                    conflict_budget: 2,
                    hard: true,
                },
            ];
            let mut queries = queries;
            for (special, &i) in specials.into_iter().zip(&at) {
                let i = i.min(queries.len());
                queries.insert(i, special);
            }
            let (pool_r, pool_n) = (TermPool::new(), TermPool::new());
            let (vars_r, vars_n) = (query_vars(&pool_r), query_vars(&pool_n));
            let mut recycled = Solver::new();
            let (mut latched, mut unknown) = (false, false);
            for (k, q) in queries.iter().enumerate() {
                let before = counters(&recycled);
                let r = run_query(&mut recycled, &pool_r, &vars_r, q);
                let mut fresh = Solver::new();
                let n = run_query(&mut fresh, &pool_n, &vars_n, q);
                proptest::prop_assert_eq!(r, n, "query {}: verdict", k);
                let delta: Vec<u64> =
                    counters(&recycled).iter().zip(&before).map(|(a, b)| a - b).collect();
                proptest::prop_assert_eq!(delta, counters(&fresh), "query {}: counters", k);
                proptest::prop_assert_eq!(pool_r.num_vars(), pool_n.num_vars());
                for v in 0..pool_r.num_vars() as u32 {
                    proptest::prop_assert_eq!(
                        recycled.model_value(&pool_r, VarId(v)),
                        fresh.model_value(&pool_n, VarId(v)),
                        "query {}: model of variable {}", k, v
                    );
                }
                latched |= r == CheckResult::Unsat
                    && !recycled.last.as_ref().expect("instance kept").0.is_ok();
                unknown |= r == CheckResult::Unknown;
            }
            proptest::prop_assert!(latched, "no check latched Unsat while encoding");
            proptest::prop_assert!(unknown, "no budgeted check ended Unknown");
        }
    }

    #[test]
    fn solver_mode_parses_cli_spellings() {
        assert_eq!(SolverMode::parse("fresh"), Some(SolverMode::Fresh));
        assert_eq!(SolverMode::parse("incremental"), Some(SolverMode::Incremental));
        assert_eq!(SolverMode::parse("warm"), None);
        assert_eq!(SolverMode::default().as_str(), "incremental");
    }
}
