//! The configured study and the exact state-enumeration engines.

use crate::budget::{AnalysisError, BudgetGuard, CHECK_INTERVAL};
use crate::ccf::FailureDependencies;
use crate::distribution::ConfigDistribution;
use fmperf_ftlqn::{FaultGraph, KnowPolicy, PerfectKnowledge};
use fmperf_mama::{ComponentSpace, KnowTable};
use fmperf_obs::{Counter, Phase, Recorder, Span};

/// Where `know` answers come from.
#[derive(Debug, Clone, Copy)]
pub enum Knowledge<'a> {
    /// Every task knows everything (the paper's earlier IPDS'98 model).
    Perfect,
    /// Knowledge limited by a MAMA architecture.
    Mama(&'a KnowTable),
}

/// One configured performability study: application fault graph,
/// component space, knowledge source and know policy.
#[derive(Debug, Clone, Copy)]
pub struct Analysis<'a> {
    pub(crate) graph: &'a FaultGraph<'a>,
    pub(crate) space: &'a ComponentSpace,
    pub(crate) knowledge: Knowledge<'a>,
    pub(crate) policy: KnowPolicy,
    pub(crate) unmonitored_known: bool,
    pub(crate) recorder: Option<&'a dyn Recorder>,
    pub(crate) threads: Option<usize>,
}

impl<'a> Analysis<'a> {
    /// Creates a perfect-knowledge study; attach a MAMA knowledge table
    /// with [`with_knowledge`](Analysis::with_knowledge).
    ///
    /// The default know policy is [`KnowPolicy::AnyFailedComponent`]:
    /// reproducing the paper's Table 1 pins down that reading (knowing
    /// any one failed component of a skipped alternative suffices); the
    /// stricter literal reading is available via
    /// [`with_policy`](Analysis::with_policy).
    pub fn new(graph: &'a FaultGraph<'a>, space: &'a ComponentSpace) -> Self {
        Analysis {
            graph,
            space,
            knowledge: Knowledge::Perfect,
            policy: KnowPolicy::AnyFailedComponent,
            unmonitored_known: false,
            recorder: None,
            threads: None,
        }
    }

    /// Uses a MAMA-derived knowledge table instead of perfect knowledge.
    pub fn with_knowledge(mut self, table: &'a KnowTable) -> Self {
        self.knowledge = Knowledge::Mama(table);
        self
    }

    /// Sets the skipped-alternative knowledge policy (default:
    /// [`KnowPolicy::AnyFailedComponent`], the reading that reproduces
    /// the paper's Table 1).
    pub fn with_policy(mut self, policy: KnowPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Treats components with **no** knowledge path to the decider as
    /// vacuously known (exempt from the know requirement) instead of
    /// never known.
    ///
    /// Default `false` — what was never monitored cannot be learned.
    /// The paper's Table 2 *distributed* column is only reproducible
    /// under `true` combined with
    /// [`fmperf_mama::arch::distributed_as_published`]: the published
    /// numbers imply cross-domain components were exempt from the
    /// knowledge test rather than blocked by it.
    pub fn with_unmonitored_known(mut self, known: bool) -> Self {
        self.unmonitored_known = known;
        self
    }

    /// Attaches an instrumentation recorder (see [`fmperf_obs`]): the
    /// engines report phase spans and counters to it at flush points.
    ///
    /// The default is no recorder, which costs one predictable branch
    /// per flush point — a disabled run is bit-identical to (and as
    /// fast as) an uninstrumented one.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Pins the worker count used when this analysis picks a thread
    /// count itself (today:
    /// [`enumerate_parallel_auto`](Analysis::enumerate_parallel_auto)).
    ///
    /// The default consults [`std::thread::available_parallelism`],
    /// which varies across machines and shared CI runners; pinning the
    /// knob makes benchmark and CI runs reproducible.  A value of 0 is
    /// treated as 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The effective auto-parallelism worker count: the
    /// [`with_threads`](Analysis::with_threads) knob if pinned, the
    /// machine's available parallelism otherwise.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Number of states the exact enumeration will visit
    /// (`2^fallible-components`).
    pub fn state_space_size(&self) -> u64 {
        1u64 << self.space.fallible_indices().len()
    }

    pub(crate) fn configuration_of(&self, state: &[bool]) -> fmperf_ftlqn::Configuration {
        match self.knowledge {
            Knowledge::Perfect => self
                .graph
                .configuration(state, &PerfectKnowledge, self.policy),
            Knowledge::Mama(table) => {
                let oracle = table
                    .oracle(state)
                    .default_for_missing(self.unmonitored_known);
                self.graph.configuration(state, &oracle, self.policy)
            }
        }
    }

    /// The paper's §5 step 4: enumerate all `2^N` up/down combinations of
    /// the fallible components and accumulate configuration
    /// probabilities.
    ///
    /// Runs through the compiled bitmask kernel
    /// ([`Analysis::compile`]) when compilation can amortise (see
    /// [`prefers_compiled`](Analysis::prefers_compiled)), falling back
    /// to the naive reference scan otherwise.  Both paths return
    /// bit-identical distributions.
    ///
    /// # Panics
    ///
    /// Panics if more than 30 components are fallible (use
    /// [`monte_carlo`](Analysis::monte_carlo) or
    /// [`compile_mtbdd`](Analysis::compile_mtbdd) instead).
    pub fn enumerate(&self) -> ConfigDistribution {
        match self.compile() {
            Some(kernel) if self.prefers_compiled() => kernel.enumerate(),
            _ => self.enumerate_naive(),
        }
    }

    /// [`enumerate`](Analysis::enumerate) with the feasibility check
    /// surfaced as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::TooManyComponents`] when more than 30 components
    /// are fallible.
    pub fn try_enumerate(&self) -> Result<ConfigDistribution, AnalysisError> {
        check_enumerable(self.space.fallible_indices().len(), None)?;
        Ok(self.enumerate())
    }

    /// [`enumerate_parallel`](Analysis::enumerate_parallel) with the
    /// feasibility check surfaced as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::TooManyComponents`] when more than 30 components
    /// are fallible.
    pub fn try_enumerate_parallel(
        &self,
        threads: usize,
    ) -> Result<ConfigDistribution, AnalysisError> {
        check_enumerable(self.space.fallible_indices().len(), None)?;
        Ok(self.enumerate_parallel(threads))
    }

    /// Should [`enumerate`](Analysis::enumerate) run the compiled kernel
    /// rather than the naive scan?
    ///
    /// The kernel's win comes from compiling the know table to mask lists
    /// and memoising service decisions; under perfect knowledge there is
    /// no know table to compile away, and on tiny state spaces the
    /// compile/memoisation overhead exceeds the scan itself (the paper's
    /// perfect case, `2^8` states, ran at 0.84× of naive).  So: any MAMA
    /// knowledge table prefers the kernel, and perfect knowledge prefers
    /// it only past `2^10` states.
    pub fn prefers_compiled(&self) -> bool {
        match self.knowledge {
            Knowledge::Mama(_) => true,
            Knowledge::Perfect => self.space.fallible_indices().len() > 10,
        }
    }

    /// The naive reference enumerator: full per-state evaluation with
    /// the allocating fault-graph walk, no decision memoisation.
    ///
    /// This is the code path the compiled kernel is differentially
    /// tested against; it visits states in the same Gray-code order with
    /// the same incremental probability walker, so
    /// [`enumerate`](Analysis::enumerate) must match it bit for bit.
    pub fn enumerate_naive(&self) -> ConfigDistribution {
        self.enumerate_naive_masked(None)
    }

    /// [`enumerate`](Analysis::enumerate) with common-cause failure
    /// dependencies: each group is an extra Bernoulli event that forces
    /// all members down (see [`crate::ccf`]).
    pub fn enumerate_with_dependencies(&self, deps: &FailureDependencies) -> ConfigDistribution {
        match self.compile() {
            Some(kernel) if self.prefers_compiled() => kernel.enumerate_with_dependencies(deps),
            _ => self.enumerate_naive_with_dependencies(deps),
        }
    }

    /// [`enumerate_naive`](Analysis::enumerate_naive) with common-cause
    /// failure dependencies — the reference implementation for
    /// [`enumerate_with_dependencies`](Analysis::enumerate_with_dependencies).
    pub fn enumerate_naive_with_dependencies(
        &self,
        deps: &FailureDependencies,
    ) -> ConfigDistribution {
        self.enumerate_naive_masked(Some(deps))
    }

    fn enumerate_naive_masked(&self, deps: Option<&FailureDependencies>) -> ConfigDistribution {
        assert_enumerable(self.space.fallible_indices().len(), deps);
        self.enumerate_naive_guarded(deps, None)
            .expect("invariant: an unguarded scan has no budget to exhaust")
    }

    /// Budget-guarded naive reference scan; a within-budget run is
    /// bit-identical to [`enumerate_naive`](Analysis::enumerate_naive).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DeadlineExpired`] when the guard's deadline
    /// passes mid-scan.
    pub(crate) fn try_enumerate_naive_guarded(
        &self,
        guard: &BudgetGuard,
    ) -> Result<ConfigDistribution, AnalysisError> {
        check_enumerable(self.space.fallible_indices().len(), None)?;
        self.enumerate_naive_guarded(None, Some(guard))
    }

    fn enumerate_naive_guarded(
        &self,
        deps: Option<&FailureDependencies>,
        guard: Option<&BudgetGuard>,
    ) -> Result<ConfigDistribution, AnalysisError> {
        let _span = Span::enter(self.recorder, Phase::StateScan);
        let fallible = self.space.fallible_indices();
        let n_states: u64 = 1 << fallible.len();
        let n_group_states: u64 = 1 << deps.map_or(0, |d| d.group_count());
        let up: Vec<f64> = fallible.iter().map(|&ix| self.space.up_prob(ix)).collect();

        let mut dist = ConfigDistribution::new();
        let mut state = self.space.all_up();
        let mut visited_groups = 0u64;
        let mut until_check = 0u64;
        let mut steps = 0u64;
        let mut visited = 0u64;
        let mut polls = 0u64;
        for gmask in 0..n_group_states {
            let gprob = deps.map_or(1.0, |d| d.mask_probability(gmask));
            if gprob == 0.0 {
                continue; // zero-probability group masks are never visited
            }
            visited_groups += 1;
            let forced: Vec<usize> = deps.map_or(Vec::new(), |d| d.forced_down(gmask));
            for (word, wprob) in crate::compiled::GrayWalk::new(&up, 0, n_states) {
                if let Some(g) = guard {
                    if until_check == 0 {
                        g.check()?;
                        polls += 1;
                        until_check = CHECK_INTERVAL;
                    }
                    until_check -= 1;
                }
                steps += 1;
                let prob = gprob * wprob;
                if prob == 0.0 {
                    continue;
                }
                visited += 1;
                for (bit, &ix) in fallible.iter().enumerate() {
                    state[ix] = word & (1 << bit) != 0;
                }
                // Common-cause events override the independent state.
                for &ix in &forced {
                    state[ix] = false;
                }
                let config = self.configuration_of(&state);
                dist.add(config, prob);
                for &ix in &forced {
                    state[ix] = true; // restore for next iteration
                }
            }
        }
        dist.set_states_explored(n_states * visited_groups);
        if let Some(r) = self.recorder {
            r.add(Counter::GrayCodeSteps, steps);
            r.add(Counter::StatesVisited, visited);
            r.add(Counter::BudgetPolls, polls);
            if deps.is_some() {
                r.add(Counter::CcfContexts, visited_groups);
            }
        }
        Ok(dist)
    }

    /// Multi-threaded exact enumeration: identical result to
    /// [`enumerate`](Analysis::enumerate) up to merge rounding, mask
    /// range split across `threads` workers (each with its own decision
    /// memo).
    pub fn enumerate_parallel(&self, threads: usize) -> ConfigDistribution {
        match self.compile() {
            Some(kernel) => kernel.enumerate_parallel(threads, None),
            None => self.enumerate_naive(),
        }
    }

    /// [`enumerate_parallel`](Analysis::enumerate_parallel) with the
    /// worker count taken from the
    /// [`with_threads`](Analysis::with_threads) knob, falling back to
    /// [`std::thread::available_parallelism`] when unpinned.
    pub fn enumerate_parallel_auto(&self) -> ConfigDistribution {
        self.enumerate_parallel(self.effective_threads())
    }

    /// Multi-threaded
    /// [`enumerate_with_dependencies`](Analysis::enumerate_with_dependencies):
    /// the same group-mask semantics as the sequential path, with the
    /// state range split across `threads` workers.
    pub fn enumerate_parallel_with_dependencies(
        &self,
        threads: usize,
        deps: &FailureDependencies,
    ) -> ConfigDistribution {
        match self.compile() {
            Some(kernel) => kernel.enumerate_parallel(threads, Some(deps)),
            None => self.enumerate_naive_with_dependencies(deps),
        }
    }
}

/// Guards every exact engine: the `2^N` scan must stay feasible.
///
/// # Panics
///
/// Panics if more than 30 components are fallible, or components plus
/// dependency groups exceed 30 joint bits.
pub(crate) fn assert_enumerable(fallible: usize, deps: Option<&FailureDependencies>) {
    if let Err(e) = check_enumerable(fallible, deps) {
        panic!("invariant: exact enumeration fits in 30 joint bits — {e}");
    }
}

/// The fallible form of [`assert_enumerable`]: the `try_*` engines and
/// the guarded ladder route through this instead of panicking.
pub(crate) fn check_enumerable(
    fallible: usize,
    deps: Option<&FailureDependencies>,
) -> Result<(), AnalysisError> {
    let groups = deps.map_or(0, |d| d.group_count());
    if fallible > 30 || fallible + groups > 30 {
        return Err(AnalysisError::TooManyComponents { fallible, groups });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_ftlqn::Configuration;
    use fmperf_mama::arch;

    /// The perfect-knowledge column of Table 1/2: probabilities the paper
    /// reports to three decimals.
    #[test]
    fn perfect_knowledge_matches_paper_table() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let analysis = Analysis::new(&graph, &space);
        assert_eq!(analysis.state_space_size(), 256);
        let dist = analysis.enumerate();
        assert!((dist.total_probability() - 1.0).abs() < 1e-9);

        // C5: both chains on Server1 = 0.81^3 = 0.531441.
        let state = space.all_up();
        let c5 = graph.configuration(&state, &PerfectKnowledge, KnowPolicy::AllFailedComponents);
        assert!((dist.probability(&c5) - 0.531441).abs() < 1e-6);
        // Failed probability ≈ 0.071.
        assert!((dist.failed_probability() - 0.0708).abs() < 5e-4);
        // Six distinct operational configurations + failed.
        assert_eq!(dist.len(), 7);
    }

    #[test]
    fn centralized_matches_paper_table1() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        assert_eq!(analysis.state_space_size(), 16384);
        let dist = analysis.enumerate();
        assert!((dist.total_probability() - 1.0).abs() < 1e-9);

        // Paper Table 1 (centralized), all seven rows: C1..C6 + failed.
        // Ranked by probability: C5 (0.314), C1 = C3 (0.117),
        // C6 (0.057), C2 = C4 (0.021), failed (0.353).
        let ranked = dist.ranked();
        assert_eq!(ranked.len(), 6);
        let expect = [0.314, 0.117, 0.117, 0.057, 0.021, 0.021];
        for ((_, p), e) in ranked.iter().zip(expect) {
            assert!((p - e).abs() < 0.002, "probability {p} should be ~{e}");
        }
        let pf = dist.failed_probability();
        assert!(
            (pf - 0.353).abs() < 0.002,
            "failed probability {pf} should be ~0.353 (paper Table 1)"
        );
    }

    /// The paper's Table 2 distributed column, reproduced bit-for-bit by
    /// the as-published topology plus unmonitored-exempt semantics (see
    /// `fmperf_mama::arch::distributed_as_published`).
    #[test]
    fn distributed_as_published_matches_paper_table2() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::distributed_as_published(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_unmonitored_known(true);
        assert_eq!(analysis.state_space_size(), 65536);
        let dist = analysis.enumerate();
        // Ranked: C5 0.349, C3 0.307, C1 0.082, C6 0.046, C2 0.041,
        // C4 0.036; failed 0.139 (the paper rounds row-wise).
        let ranked = dist.ranked();
        let expect = [0.349, 0.307, 0.082, 0.046, 0.041, 0.036];
        assert_eq!(ranked.len(), expect.len());
        for ((_, p), e) in ranked.iter().zip(expect) {
            assert!((p - e).abs() < 0.001, "probability {p} should be ~{e}");
        }
        assert!((dist.failed_probability() - 0.139).abs() < 0.002);
    }

    #[test]
    fn parallel_enumeration_is_identical() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let seq = analysis.enumerate();
        let par = analysis.enumerate_parallel(4);
        assert!(seq.max_abs_diff(&par) < 1e-12);
        assert_eq!(seq.len(), par.len());
    }

    #[test]
    fn know_policy_changes_coverage() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let strict = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_policy(KnowPolicy::AllFailedComponents)
            .enumerate();
        let lax = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_policy(KnowPolicy::AnyFailedComponent)
            .enumerate();
        // The lax policy can only help coverage: failure probability must
        // not increase.
        assert!(lax.failed_probability() <= strict.failed_probability() + 1e-12);
    }

    #[test]
    fn engine_crossover_heuristic() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        // Perfect knowledge over the 2^8 application space: no know table
        // to compile away, the kernel cannot amortise — naive is chosen.
        let app_space = ComponentSpace::app_only(&sys.model);
        let small = Analysis::new(&graph, &app_space);
        assert!(!small.prefers_compiled());
        // The same perfect knowledge over the full centralized component
        // space (2^14 states) crosses over to the kernel.
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let large = Analysis::new(&graph, &space);
        assert!(large.state_space_size() > (1 << 10));
        assert!(large.prefers_compiled());
        // Any MAMA knowledge table always prefers the kernel.
        let table = KnowTable::build(&graph, &mama, &space);
        assert!(Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .prefers_compiled());
        // Whichever engine is picked, the result is bit-identical to the
        // other one.
        let via_enumerate = small.enumerate();
        let via_kernel = small.compile().expect("compilable").enumerate();
        assert_eq!(via_enumerate.ranked(), via_kernel.ranked());
        assert_eq!(
            via_enumerate.failed_probability(),
            via_kernel.failed_probability()
        );
    }

    #[test]
    fn failed_state_always_has_failed_config_mass() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let dist = Analysis::new(&graph, &space).enumerate();
        assert!(dist.probability(&Configuration::default()) > 0.0);
    }
}
