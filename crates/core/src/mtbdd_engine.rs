//! The MTBDD engine: compile the complete state→configuration map once,
//! then evaluate any availability vector in time linear in the diagram —
//! the "non-state-space-based approach" the paper's conclusion
//! anticipates.
//!
//! Exact enumeration scans `2^(A + M)` states, `A` application and `M`
//! management components.  But the configuration reached in a state
//! factors: the *application* part determines which alternatives are
//! physically available, and the *management* part only decides whether
//! each service's know-guard passes.  So the entire function
//!
//! ```text
//! (joint component up/down state) → (operational configuration)
//! ```
//!
//! is compiled into **one multi-terminal BDD per common-cause context**,
//! with interned configuration ids at the terminals
//! ([`fmperf_bdd::mtbdd`]).  Construction enumerates only the `2^A`
//! application states and, for each, the canonical service-outcome
//! vectors `σ ∈ {pass, fail}^S` (an unconsulted service contributes no
//! duplicates), running the configuration evaluator once per pair.  It
//! conjoins each region's formula — application-state cube ∧ signed
//! know-guards over the management components — and writes the
//! configuration id into the diagram with a generalised `ite`: `2^A ·
//! 2^S` evaluator calls instead of `2^(A+M)` states, 1,024 versus
//! 262,144 for the paper's hierarchical architecture.  The regions are
//! disjoint and cover the full state space (asserted: the build starts
//! from a sentinel terminal and the sentinel must be unreachable in the
//! final diagram).
//!
//! After the one-time compile the diagram is [frozen]
//! (level-ordered arrays) and a complete [`ConfigDistribution`] for *any*
//! availability vector is a single top-down pass over `O(|diagram|)`
//! nodes — no `2^A` or `2^(A+M)` term — and exact per-component reward
//! sensitivities (`E[reward | i up] − E[reward | i down]`) fall out of
//! the lo/hi co-factors in the same pass.
//!
//! [frozen]: fmperf_bdd::FrozenMtbdd

use crate::analysis::Analysis;
use crate::budget::{AnalysisError, BudgetGuard};
use crate::ccf::FailureDependencies;
use crate::distribution::ConfigDistribution;
use crate::know_guards::{GuardBuilder, KnowCache};
use crate::sensitivity::Sensitivity;
use fmperf_bdd::{FrozenMtbdd, MtRef, Mtbdd};
use fmperf_ftlqn::Configuration;
use fmperf_obs::{Counter, Phase, Span};
use std::collections::{BTreeMap, BTreeSet};

/// Sentinel terminal value marking states no region claimed.  The build
/// asserts it is unreachable in the final diagram (the regions partition
/// the state space).
const UNREACHED: u64 = u64::MAX;

/// One common-cause context: the frozen diagram for the state space with
/// the group's members forced down, weighted by the group-mask
/// probability.
struct MtContext {
    gprob: f64,
    frozen: FrozenMtbdd,
    /// Frozen terminal slot → index into [`CompiledMtbdd::configs`].
    config_of: Vec<u32>,
}

/// The compiled state→configuration map of one analysis.
///
/// Built by [`Analysis::compile_mtbdd`]; evaluation methods never touch
/// the fault graph or know table again, so a single compile amortises
/// over arbitrarily many availability vectors.
pub struct CompiledMtbdd {
    configs: Vec<Configuration>,
    contexts: Vec<MtContext>,
    up_probs: Vec<f64>,
    fallible: Vec<usize>,
    node_count: usize,
}

impl Analysis<'_> {
    /// Compiles the complete *(component states → configuration)* map
    /// into a multi-terminal BDD (see the [module docs](crate::mtbdd_engine)).
    ///
    /// # Panics
    ///
    /// Panics if more than 30 *application* components are fallible.
    pub fn compile_mtbdd(&self) -> CompiledMtbdd {
        self.compile_mtbdd_masked(None)
    }

    /// [`compile_mtbdd`](Analysis::compile_mtbdd) with common-cause
    /// failure dependencies: one diagram per group mask with positive
    /// probability, members forced down (mirroring
    /// [`enumerate_with_dependencies`](Analysis::enumerate_with_dependencies)).
    pub fn compile_mtbdd_with_dependencies(&self, deps: &FailureDependencies) -> CompiledMtbdd {
        self.compile_mtbdd_masked(Some(deps))
    }

    /// [`compile_mtbdd`](Analysis::compile_mtbdd) with the feasibility
    /// check surfaced as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::TooManyApplicationComponents`] when more than 30
    /// *application* components are fallible.
    pub fn try_compile_mtbdd(&self) -> Result<CompiledMtbdd, AnalysisError> {
        self.compile_mtbdd_fallible(None, None)
    }

    /// Budget-guarded [`compile_mtbdd`](Analysis::compile_mtbdd): the
    /// build loop polls the guard's deadline per application-state cube,
    /// node allocation is capped at the budget's `max_mtbdd_nodes`, and
    /// the `2^A·2^S` region count must fit the budget's `max_states`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::TooManyApplicationComponents`],
    /// [`AnalysisError::StateCapExceeded`],
    /// [`AnalysisError::DeadlineExpired`] or
    /// [`AnalysisError::NodeCapExceeded`].
    pub fn try_compile_mtbdd_guarded(
        &self,
        guard: &BudgetGuard,
    ) -> Result<CompiledMtbdd, AnalysisError> {
        self.compile_mtbdd_fallible(None, Some(guard))
    }

    fn compile_mtbdd_masked(&self, deps: Option<&FailureDependencies>) -> CompiledMtbdd {
        match self.compile_mtbdd_fallible(deps, None) {
            Ok(compiled) => compiled,
            // Without a guard the only failure is the feasibility check;
            // the unguarded API contract is to panic on it.
            Err(e) => panic!("invariant: MTBDD compile fits in 30 application bits — {e}"),
        }
    }

    fn compile_mtbdd_fallible(
        &self,
        deps: Option<&FailureDependencies>,
        guard: Option<&BudgetGuard>,
    ) -> Result<CompiledMtbdd, AnalysisError> {
        let _span = Span::enter(self.recorder, Phase::MtbddCompile);
        let space = self.space;
        let mut mt = Mtbdd::new(space.len());
        if let Some(g) = guard {
            mt.set_node_limit(g.budget().max_mtbdd_nodes);
        }
        let mut ids: BTreeMap<Configuration, u32> = BTreeMap::new();
        let mut configs: Vec<Configuration> = Vec::new();
        let mut contexts = Vec::new();
        let n_group_states: u64 = 1 << deps.map_or(0, |d| d.group_count());
        for gmask in 0..n_group_states {
            let gprob = deps.map_or(1.0, |d| d.mask_probability(gmask));
            if gprob == 0.0 {
                continue;
            }
            let forced: BTreeSet<usize> = deps
                .map_or(Vec::new(), |d| d.forced_down(gmask))
                .into_iter()
                .collect();
            let root = self.build_map(&mut mt, &forced, &mut ids, &mut configs, guard)?;
            let frozen = mt.freeze(root);
            let config_of: Vec<u32> = frozen
                .terminal_values()
                .iter()
                .map(|&v| {
                    assert!(
                        v != UNREACHED,
                        "MTBDD compile left part of the state space unmapped"
                    );
                    u32::try_from(v).expect("configuration id overflow")
                })
                .collect();
            contexts.push(MtContext {
                gprob,
                frozen,
                config_of,
            });
        }
        if let Some(r) = self.recorder {
            r.add(Counter::MtbddNodesCreated, mt.node_count() as u64);
            r.add(Counter::MtbddCacheHits, mt.ite_cache_hits());
            r.add(Counter::CcfContexts, contexts.len() as u64);
        }
        let node_count = contexts.iter().map(|c| c.frozen.node_count()).sum();
        Ok(CompiledMtbdd {
            configs,
            contexts,
            up_probs: (0..space.len()).map(|ix| space.up_prob(ix)).collect(),
            fallible: space.fallible_indices(),
            node_count,
        })
    }

    /// Builds the state→configuration MTBDD for one common-cause context
    /// (`forced` members down), interning configurations into
    /// `ids`/`configs`.
    fn build_map(
        &self,
        mt: &mut Mtbdd,
        forced: &BTreeSet<usize>,
        ids: &mut BTreeMap<Configuration, u32>,
        configs: &mut Vec<Configuration>,
        budget: Option<&BudgetGuard>,
    ) -> Result<MtRef, AnalysisError> {
        let space = self.space;
        let ft = self.graph.model();
        let n_services = ft.service_count();

        // Free application-side fallible variables (forced ones are fixed).
        let app_fallible: Vec<usize> = space
            .fallible_indices()
            .into_iter()
            .filter(|&ix| ix < space.app_count() && !forced.contains(&ix))
            .collect();
        if app_fallible.len() > 30 {
            return Err(AnalysisError::TooManyApplicationComponents {
                application: app_fallible.len(),
            });
        }
        if let Some(g) = budget {
            // The build enumerates 2^A application cubes × 2^S service
            // outcomes: that region count is this engine's "state" cost.
            let bits = app_fallible.len() + n_services;
            let regions = 1u128 << bits.min(127);
            if bits >= 64 || regions > u128::from(g.budget().max_states) {
                return Err(AnalysisError::StateCapExceeded {
                    states: u64::try_from(regions.min(u128::from(u64::MAX)))
                        .expect("invariant: value clamped to u64::MAX"),
                    max_states: g.budget().max_states,
                });
            }
            // The build would allocate from here on; a cap no roomier
            // than one it was already refused under cannot fit it.
            if g.node_cap_refused() {
                return Err(AnalysisError::NodeCapExceeded {
                    max_nodes: g.budget().max_mtbdd_nodes,
                });
            }
        }

        let guards = GuardBuilder::for_context(self, forced, true);
        let mut cache: KnowCache<MtRef> = KnowCache::new();
        let mut state = space.all_up();
        for &ix in forced {
            state[ix] = false;
        }
        let mut map = mt.constant(UNREACHED);
        let n_app_states: u64 = 1 << app_fallible.len();
        let n_sigma: u64 = 1 << n_services;
        for mask in 0..n_app_states {
            if let Some(g) = budget {
                fmperf_obs::add(self.recorder, Counter::BudgetPolls, 1);
                g.check()?;
                if mt.node_limit_hit() {
                    return Err(AnalysisError::NodeCapExceeded {
                        max_nodes: g.budget().max_mtbdd_nodes,
                    });
                }
            }
            for (bit, &ix) in app_fallible.iter().enumerate() {
                state[ix] = mask & (1 << bit) != 0;
            }
            for sigma in 0..n_sigma {
                let outcomes: Vec<bool> = (0..n_services).map(|s| sigma & (1 << s) != 0).collect();
                let (config, decisions) = self.graph.configuration_with_outcomes(&state, &outcomes);
                // Canonical form: a service that was never consulted
                // must have σ_s = false, otherwise this vector duplicates
                // the σ_s = false one.
                if decisions
                    .iter()
                    .zip(&outcomes)
                    .any(|(d, &o)| d.is_none() && o)
                {
                    continue;
                }
                let mut g = MtRef::TRUE;
                for (s, decision) in decisions.iter().enumerate() {
                    let Some(d) = decision else { continue };
                    let guard = guards.decision_guard(mt, &mut cache, d);
                    let signed = if outcomes[s] { guard } else { mt.not(guard) };
                    g = mt.and(g, signed);
                    if g.is_false() {
                        break;
                    }
                }
                if g.is_false() {
                    continue;
                }
                // Conjoin the application-state cube; the region is then
                // disjoint from every other (app state, σ) region.
                let mut region = g;
                for &ix in &app_fallible {
                    let lit = if state[ix] { mt.var(ix) } else { mt.nvar(ix) };
                    region = mt.and(region, lit);
                }
                if region.is_false() {
                    continue;
                }
                let id = *ids.entry(config.clone()).or_insert_with(|| {
                    configs.push(config);
                    u32::try_from(configs.len() - 1).expect("configuration id overflow")
                });
                let leaf = mt.constant(u64::from(id));
                map = mt.ite(region, leaf, map);
            }
        }
        if let Some(g) = budget {
            // Catch a cap trip on the final cube before freezing a
            // truncated diagram.
            if mt.node_limit_hit() {
                return Err(AnalysisError::NodeCapExceeded {
                    max_nodes: g.budget().max_mtbdd_nodes,
                });
            }
        }
        Ok(map)
    }
}

impl std::fmt::Debug for CompiledMtbdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledMtbdd")
            .field("configurations", &self.configs.len())
            .field("contexts", &self.contexts.len())
            .field("node_count", &self.node_count)
            .finish_non_exhaustive()
    }
}

impl CompiledMtbdd {
    /// Every configuration the compiled map can produce, indexed by the
    /// positions used in [`probabilities_for`](CompiledMtbdd::probabilities_for)
    /// and [`reward_sensitivity`](CompiledMtbdd::reward_sensitivity).
    pub fn configurations(&self) -> &[Configuration] {
        &self.configs
    }

    /// Total decision-node count across all frozen context diagrams —
    /// the per-evaluation cost.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The availability vector the analysis was compiled with.
    pub fn baseline_up(&self) -> &[f64] {
        &self.up_probs
    }

    /// Global indices of the fallible components.
    pub fn fallible_indices(&self) -> &[usize] {
        &self.fallible
    }

    /// Raw per-configuration probabilities (aligned with
    /// [`configurations`](CompiledMtbdd::configurations)) for one
    /// availability vector: one linear pass per context diagram.
    pub fn probabilities_for(&self, up: &[f64]) -> Vec<f64> {
        self.try_probabilities_for(up)
            .expect("invariant: availability vector length equals the component count")
    }

    /// [`probabilities_for`](CompiledMtbdd::probabilities_for) with the
    /// length check surfaced as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DimensionMismatch`] when `up.len()` is not the
    /// component count.
    pub fn try_probabilities_for(&self, up: &[f64]) -> Result<Vec<f64>, AnalysisError> {
        self.check_row(up)?;
        let mut sums = vec![0.0; self.configs.len()];
        let mut scratch = Vec::new();
        for ctx in &self.contexts {
            let mut out = vec![0.0; ctx.frozen.terminal_count()];
            ctx.frozen.distribution_into(up, &mut scratch, &mut out);
            for (slot, &p) in out.iter().enumerate() {
                sums[ctx.config_of[slot] as usize] += ctx.gprob * p;
            }
        }
        Ok(sums)
    }

    /// Errors unless `up` has exactly one entry per component.
    fn check_row(&self, up: &[f64]) -> Result<(), AnalysisError> {
        if up.len() != self.up_probs.len() {
            return Err(AnalysisError::DimensionMismatch {
                expected: self.up_probs.len(),
                got: up.len(),
            });
        }
        Ok(())
    }

    /// The configuration distribution for an arbitrary availability
    /// vector (length = component count, entries in `[0, 1]`).
    ///
    /// `states_explored` on the result reports the diagram nodes visited
    /// (the linear-pass cost), not a `2^N` state count.
    pub fn distribution_for(&self, up: &[f64]) -> ConfigDistribution {
        self.to_distribution(&self.probabilities_for(up))
    }

    /// [`distribution_for`](CompiledMtbdd::distribution_for) with the
    /// length check surfaced as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DimensionMismatch`] when `up.len()` is not the
    /// component count.
    pub fn try_distribution_for(&self, up: &[f64]) -> Result<ConfigDistribution, AnalysisError> {
        Ok(self.to_distribution(&self.try_probabilities_for(up)?))
    }

    /// The distribution at the compiled availability vector — matches
    /// [`Analysis::enumerate`] on the same analysis (identical
    /// configuration set, probabilities equal up to float associativity).
    pub fn distribution(&self) -> ConfigDistribution {
        self.distribution_for(&self.up_probs)
    }

    /// Per-configuration probabilities for a whole matrix of availability
    /// vectors, rows chunked over `threads` OS threads.
    pub fn batch_probabilities(&self, rows: &[Vec<f64>], threads: usize) -> Vec<Vec<f64>> {
        self.try_batch_probabilities(rows, threads)
            .expect("invariant: every availability row's length equals the component count")
    }

    /// [`batch_probabilities`](CompiledMtbdd::batch_probabilities) with
    /// the length checks surfaced as typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DimensionMismatch`] for the first row whose
    /// length is not the component count.
    pub fn try_batch_probabilities(
        &self,
        rows: &[Vec<f64>],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, AnalysisError> {
        for row in rows {
            self.check_row(row)?;
        }
        let mut sums = vec![vec![0.0; self.configs.len()]; rows.len()];
        for ctx in &self.contexts {
            let outs = ctx.frozen.batch_distributions(rows, threads);
            for (row_sums, out) in sums.iter_mut().zip(&outs) {
                for (slot, &p) in out.iter().enumerate() {
                    row_sums[ctx.config_of[slot] as usize] += ctx.gprob * p;
                }
            }
        }
        Ok(sums)
    }

    /// [`distribution_for`](CompiledMtbdd::distribution_for) over a
    /// matrix of availability vectors, evaluated in parallel.
    pub fn batch_distributions(
        &self,
        rows: &[Vec<f64>],
        threads: usize,
    ) -> Vec<ConfigDistribution> {
        self.batch_probabilities(rows, threads)
            .iter()
            .map(|sums| self.to_distribution(sums))
            .collect()
    }

    /// Expected reward at an arbitrary availability vector, given the
    /// per-configuration rewards (aligned with
    /// [`configurations`](CompiledMtbdd::configurations)).
    pub fn expected_reward_for(&self, up: &[f64], rewards: &[f64]) -> f64 {
        self.try_expected_reward_for(up, rewards)
            .expect("invariant: reward and availability vectors match the compiled dimensions")
    }

    /// [`expected_reward_for`](CompiledMtbdd::expected_reward_for) with
    /// the length checks surfaced as typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DimensionMismatch`] when `up` is not one entry
    /// per component or `rewards` is not one entry per configuration.
    pub fn try_expected_reward_for(
        &self,
        up: &[f64],
        rewards: &[f64],
    ) -> Result<f64, AnalysisError> {
        self.check_rewards(rewards)?;
        Ok(self
            .try_probabilities_for(up)?
            .iter()
            .zip(rewards)
            .map(|(p, r)| p * r)
            .sum())
    }

    /// Errors unless `rewards` has exactly one entry per configuration.
    fn check_rewards(&self, rewards: &[f64]) -> Result<(), AnalysisError> {
        if rewards.len() != self.configs.len() {
            return Err(AnalysisError::DimensionMismatch {
                expected: self.configs.len(),
                got: rewards.len(),
            });
        }
        Ok(())
    }

    /// Exact per-component reward sensitivities at the compiled
    /// availability vector, from the lo/hi co-factors of the frozen
    /// diagrams — no re-enumeration.
    ///
    /// `rewards[i]` is the reward of `configurations()[i]`.  The result
    /// matches [`crate::sensitivity::sensitivity`] (which enumerates the
    /// `2^N` states) up to float associativity.
    pub fn reward_sensitivity(&self, rewards: &[f64]) -> Sensitivity {
        self.try_reward_sensitivity(rewards)
            .expect("invariant: one reward per compiled configuration")
    }

    /// [`reward_sensitivity`](CompiledMtbdd::reward_sensitivity) with
    /// the length check surfaced as a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DimensionMismatch`] when `rewards` is not one
    /// entry per configuration.
    pub fn try_reward_sensitivity(&self, rewards: &[f64]) -> Result<Sensitivity, AnalysisError> {
        self.check_rewards(rewards)?;
        let mut deriv = vec![0.0; self.up_probs.len()];
        let mut ctx_deriv = vec![0.0; self.up_probs.len()];
        let mut reach = Vec::new();
        let mut value = Vec::new();
        for ctx in &self.contexts {
            let term_rewards: Vec<f64> = ctx
                .config_of
                .iter()
                .map(|&id| rewards[id as usize])
                .collect();
            ctx.frozen.expected_and_derivatives_into(
                &self.up_probs,
                &term_rewards,
                &mut reach,
                &mut value,
                &mut ctx_deriv,
            );
            for (d, &cd) in deriv.iter_mut().zip(&ctx_deriv) {
                *d += ctx.gprob * cd;
            }
        }
        Ok(Sensitivity {
            derivatives: self.fallible.iter().map(|&ix| (ix, deriv[ix])).collect(),
        })
    }

    pub(crate) fn to_distribution(&self, sums: &[f64]) -> ConfigDistribution {
        let mut dist = ConfigDistribution::new();
        for (config, &s) in self.configs.iter().zip(sums) {
            if s != 0.0 {
                dist.add(config.clone(), s);
            }
        }
        dist.set_states_explored(self.node_count as u64);
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_mama::{arch, ComponentSpace, KnowTable};

    #[test]
    fn mtbdd_distribution_matches_enumeration_all_architectures() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        for kind in arch::ArchKind::ALL {
            let mama = arch::build(kind, &sys, 0.1);
            let space = ComponentSpace::build(&sys.model, &mama);
            let table = KnowTable::build(&graph, &mama, &space);
            let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
            let exact = analysis.enumerate();
            let compiled = analysis.compile_mtbdd();
            let dist = compiled.distribution();
            assert!(
                exact.max_abs_diff(&dist) < 1e-12,
                "{}: MTBDD diverges from enumeration by {}",
                kind.name(),
                exact.max_abs_diff(&dist)
            );
            assert_eq!(exact.len(), dist.len(), "{}", kind.name());
            assert!((dist.total_probability() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mtbdd_perfect_knowledge_matches_enumeration() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let analysis = Analysis::new(&graph, &space);
        let exact = analysis.enumerate();
        let dist = analysis.compile_mtbdd().distribution();
        assert!(exact.max_abs_diff(&dist) < 1e-12);
        assert_eq!(exact.len(), dist.len());
    }

    #[test]
    fn distribution_for_matches_a_reenumerated_twin_model() {
        // Evaluating the compiled diagram at a *different* availability
        // vector must equal enumerating a twin model rebuilt with those
        // availabilities.
        use fmperf_ftlqn::examples::{das_woodside_system_with, DasWoodsideParams};
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::hierarchical(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let compiled = analysis.compile_mtbdd();

        // Twin with every application failure probability at 0.25.
        let sys2 = das_woodside_system_with(DasWoodsideParams {
            fail_prob: 0.25,
            ..DasWoodsideParams::default()
        });
        let graph2 = sys2.fault_graph().unwrap();
        let mama2 = arch::hierarchical(&sys2, 0.1);
        let space2 = ComponentSpace::build(&sys2.model, &mama2);
        let table2 = KnowTable::build(&graph2, &mama2, &space2);
        let exact2 = Analysis::new(&graph2, &space2)
            .with_knowledge(&table2)
            .enumerate();
        let up2: Vec<f64> = (0..space2.len()).map(|ix| space2.up_prob(ix)).collect();
        let swept = compiled.distribution_for(&up2);
        // 1e-9 rather than 1e-12: at fail 0.25 the enumeration itself
        // accumulates ~2e-12 of associativity error (its total is
        // 0.9999999999980), which the single-pass evaluation does not.
        assert!(exact2.max_abs_diff(&swept) < 1e-9);
        assert_eq!(exact2.len(), swept.len());
    }

    #[test]
    fn common_cause_contexts_match_enumeration() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let mut deps = FailureDependencies::new();
        let p1 = sys
            .model
            .component_index(fmperf_ftlqn::Component::Processor(sys.proc2));
        let p2 = sys
            .model
            .component_index(fmperf_ftlqn::Component::Processor(sys.proc3));
        deps.add_group("shared-rack", 0.05, vec![p1, p2]);
        let exact = analysis.enumerate_with_dependencies(&deps);
        let dist = analysis
            .compile_mtbdd_with_dependencies(&deps)
            .distribution();
        assert!(exact.max_abs_diff(&dist) < 1e-12);
        assert_eq!(exact.len(), dist.len());
    }

    #[test]
    fn batch_matches_single_evaluations() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::network(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let compiled = analysis.compile_mtbdd();
        let target = compiled.fallible_indices()[0];
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                let mut up = compiled.baseline_up().to_vec();
                up[target] = i as f64 / 8.0;
                up
            })
            .collect();
        let batch = compiled.batch_distributions(&rows, 3);
        assert_eq!(batch.len(), rows.len());
        for (row, dist) in rows.iter().zip(&batch) {
            let single = compiled.distribution_for(row);
            assert!(single.max_abs_diff(dist) < 1e-15);
        }
    }
}
