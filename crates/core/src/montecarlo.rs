//! Monte Carlo estimation of the configuration distribution.
//!
//! The paper's conclusion notes that the `2^N` scan "will limit the
//! scalability of the approach ... to one or two dozen entities".  For
//! larger systems the distribution can be estimated by sampling component
//! states; each configuration's probability estimate is a binomial
//! proportion with the usual normal-approximation confidence interval.
//!
//! Samples resolve through the compiled kernel whenever the analysis
//! compiles; beyond it (more than 64 fallible components or know
//! pairs) the wide samplers resolve them through a failure-set memo
//! that evaluates each distinct sampled failure set once per run.

use crate::analysis::Analysis;
use crate::budget::{AnalysisBudget, AnalysisError, BudgetGuard, EstimateInfo};
use crate::compiled::{Accumulator, CompiledKernel};
use crate::distribution::ConfigDistribution;
use crate::importance::{Proposal, WeightedRun};
use fmperf_obs::{Counter, Phase, Span};
use fmperf_sim::BatchMeans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Options for [`Analysis::monte_carlo`].
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloOptions {
    /// Number of independent state samples.
    pub samples: u64,
    /// RNG seed (identical seeds give identical estimates).
    pub seed: u64,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            samples: 100_000,
            seed: 0xC0FFEE,
        }
    }
}

/// A pooled Monte Carlo estimate with its batch-means provenance.
#[derive(Debug, Clone)]
pub struct MonteCarloEstimate {
    /// The pooled (batch-averaged) configuration distribution.
    pub distribution: ConfigDistribution,
    /// Samples, seed, batch count and the failure-probability CI.
    pub info: EstimateInfo,
}

/// Normal-approximation 95% half-width for a probability estimate `p`
/// from `n` samples.
pub fn proportion_half_width(p: f64, n: u64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    1.96 * (p * (1.0 - p) / n as f64).sqrt()
}

impl Analysis<'_> {
    /// Estimates the configuration distribution from random state
    /// samples.  Works for any number of components.
    ///
    /// Dispatches to the compiled bitmask kernel when the analysis is
    /// compilable; the kernel consumes the RNG in exactly the same
    /// order, so a given seed yields the same estimate either way.
    pub fn monte_carlo(&self, options: MonteCarloOptions) -> ConfigDistribution {
        let _span = Span::enter(self.recorder, Phase::Sampling);
        let mut rng = StdRng::seed_from_u64(options.seed);
        self.sampler(None)
            .monte_carlo_run(&mut rng, options.samples)
    }

    /// [`monte_carlo`](Analysis::monte_carlo) with the degenerate input
    /// surfaced as a typed error.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::NoSamples`] when `options.samples` is zero.
    pub fn try_monte_carlo(
        &self,
        options: MonteCarloOptions,
    ) -> Result<ConfigDistribution, AnalysisError> {
        if options.samples == 0 {
            return Err(AnalysisError::NoSamples);
        }
        Ok(self.monte_carlo(options))
    }

    /// Batched Monte Carlo estimation with a batch-means confidence
    /// interval — the bottom rung of the degradation ladder.
    ///
    /// `options.samples` is split over `batches` (at least 2) equal
    /// batches; each batch's failure-probability estimate feeds a
    /// Student-t 95% interval.  With a guard, the deadline is polled
    /// *between* batches once the two-batch minimum has run, so this
    /// estimator always returns a distribution and a finite-df interval
    /// even when the deadline has already expired.
    pub fn monte_carlo_batched(
        &self,
        options: MonteCarloOptions,
        batches: u64,
        guard: Option<&BudgetGuard>,
    ) -> MonteCarloEstimate {
        let _span = Span::enter(self.recorder, Phase::Sampling);
        let mut sampler = self.sampler(guard);
        self.pool_monte_carlo(options, batches, guard, |rng, n| {
            sampler.monte_carlo_run(rng, n)
        })
    }

    /// The batching and pooling of
    /// [`monte_carlo_batched`](Analysis::monte_carlo_batched) around
    /// `run`, which draws one batch of `n` samples.
    pub(crate) fn pool_monte_carlo(
        &self,
        options: MonteCarloOptions,
        batches: u64,
        guard: Option<&BudgetGuard>,
        mut run: impl FnMut(&mut StdRng, u64) -> ConfigDistribution,
    ) -> MonteCarloEstimate {
        let batches = batches.max(2);
        let per_batch = (options.samples / batches).max(1);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut bm = BatchMeans::new();
        let mut merged = ConfigDistribution::new();
        let mut completed = 0u64;
        let mut polls = 0u64;
        for b in 0..batches {
            // The first two batches always run: the estimator's contract
            // is to produce a result with a finite-df interval no matter
            // how starved the budget is.
            if b >= 2 {
                if let Some(g) = guard {
                    polls += 1;
                    if g.check().is_err() {
                        break;
                    }
                }
            }
            let dist = run(&mut rng, per_batch);
            bm.push_batch(dist.failed_probability());
            merged.merge(dist);
            completed += 1;
        }
        // Each batch distribution is normalised to its own batch; the
        // pooled estimate is their average.
        let mut distribution = ConfigDistribution::new();
        for (config, p) in merged.iter() {
            distribution.add(config.clone(), p / completed as f64);
        }
        let drawn = per_batch * completed;
        distribution.set_states_explored(drawn);
        if let Some(r) = self.recorder {
            r.add(Counter::MonteCarloBatches, completed);
            r.add(Counter::BudgetPolls, polls);
        }
        let ci = bm.confidence_interval();
        MonteCarloEstimate {
            distribution,
            info: EstimateInfo {
                samples: drawn,
                seed: options.seed,
                batches: completed,
                failed_mean: ci.mean,
                failed_half_width: ci.half_width,
                is: None,
            },
        }
    }
}

impl<'a> Analysis<'a> {
    /// The sampler of one run: the compiled kernel whenever the analysis
    /// compiles, else a [`FailureSetMemo`] bounded at the budget's
    /// `max_memo_entries` (the default budget's without a guard).
    pub(crate) fn sampler(&self, guard: Option<&BudgetGuard>) -> Sampler<'a> {
        match self.compile() {
            Some(kernel) => Sampler::Kernel(kernel),
            None => Sampler::Wide(FailureSetMemo::new(
                *self,
                guard.map_or(AnalysisBudget::DEFAULT_MAX_MEMO_ENTRIES, |g| {
                    g.budget().max_memo_entries
                }),
            )),
        }
    }
}

/// How one sampling run resolves its samples to configurations.
pub(crate) enum Sampler<'a> {
    /// The compiled bitmask kernel (at most 64 fallible components and
    /// know pairs).
    Kernel(CompiledKernel<'a>),
    /// The wide samplers, for everything the kernel cannot hold.
    Wide(FailureSetMemo<'a>),
}

impl Sampler<'_> {
    /// One batch of `samples` plain Monte Carlo draws.
    pub(crate) fn monte_carlo_run(&mut self, rng: &mut StdRng, samples: u64) -> ConfigDistribution {
        match self {
            Sampler::Kernel(kernel) => kernel.monte_carlo_run(rng, samples),
            Sampler::Wide(memo) => memo.monte_carlo_run(rng, samples),
        }
    }

    /// One batch of `samples` importance-sampled draws from `proposal`.
    pub(crate) fn importance_run(
        &mut self,
        rng: &mut StdRng,
        samples: u64,
        proposal: &Proposal,
    ) -> WeightedRun {
        match self {
            Sampler::Kernel(kernel) => kernel.importance_run(rng, samples, proposal),
            Sampler::Wide(memo) => memo.importance_run(rng, samples, proposal),
        }
    }
}

/// The wide samplers' failure-set memo: the Monte Carlo and
/// importance samplers of models the compiled kernel cannot hold.
///
/// A sampled state is fixed by its *down-set*, the positions of its
/// failed fallible components, so the configuration it reaches is
/// memoized on that set and the fault-graph evaluator runs once per
/// distinct failure set of a run rather than once per sample.  The memo
/// is shared by every batch of the run and stops growing at `cap`
/// entries; past the bound, a new failure set is evaluated without
/// being stored, so no estimate depends on the bound.  One run-wide
/// [`Accumulator`] interns configurations by value and sums each
/// batch's weights per id in sample order, the order the per-state
/// evaluation adds them in, so every batch distribution is bit-identical
/// to evaluating each sample.
pub(crate) struct FailureSetMemo<'a> {
    analysis: Analysis<'a>,
    /// Global index per fallible position.
    fallible: Vec<usize>,
    /// Nominal up probability per fallible position.
    up: Vec<f64>,
    /// Down-set → configuration id in `acc`.
    ids: HashMap<Box<[u32]>, u32>,
    cap: usize,
    acc: Accumulator,
    /// `reached[id]`: the current batch sampled configuration `id`.
    reached: Vec<bool>,
    /// Down-set of the sample being resolved.
    down: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl<'a> FailureSetMemo<'a> {
    fn new(analysis: Analysis<'a>, cap: usize) -> FailureSetMemo<'a> {
        let fallible = analysis.space.fallible_indices();
        FailureSetMemo {
            up: fallible
                .iter()
                .map(|&ix| analysis.space.up_prob(ix))
                .collect(),
            fallible,
            ids: HashMap::new(),
            cap,
            acc: Accumulator::new(analysis.space),
            reached: Vec::new(),
            down: Vec::new(),
            hits: 0,
            misses: 0,
            analysis,
        }
    }

    /// One batch of `samples` plain Monte Carlo draws, consuming the RNG
    /// as the kernel's [`CompiledKernel::monte_carlo_run`] does: one
    /// draw per fallible position, in order.
    fn monte_carlo_run(&mut self, rng: &mut StdRng, samples: u64) -> ConfigDistribution {
        let weight = 1.0 / samples as f64;
        for _ in 0..samples {
            self.down.clear();
            for (b, &p) in self.up.iter().enumerate() {
                let up = rng.gen::<f64>() < p;
                if !up {
                    self.down.push(b as u32);
                }
            }
            self.add(weight);
        }
        fmperf_obs::add(self.analysis.recorder, Counter::MonteCarloSamples, samples);
        self.take_batch(samples)
    }

    /// One batch of `samples` importance-sampled draws from `proposal`
    /// (built over this memo's fallible positions).
    fn importance_run(
        &mut self,
        rng: &mut StdRng,
        samples: u64,
        proposal: &Proposal,
    ) -> WeightedRun {
        let inv = 1.0 / samples as f64;
        let mut weight_sum = 0.0;
        let mut weight_sq_sum = 0.0;
        for _ in 0..samples {
            self.down.clear();
            let down = &mut self.down;
            let w = proposal.draw(rng, |b, up| {
                if !up {
                    down.push(b as u32);
                }
            });
            self.add(w * inv);
            weight_sum += w;
            weight_sq_sum += w * w;
        }
        fmperf_obs::add(self.analysis.recorder, Counter::MonteCarloSamples, samples);
        WeightedRun {
            distribution: self.take_batch(samples),
            weight_sum,
            weight_sq_sum,
        }
    }

    /// Adds `weight` to the configuration of the state whose down-set
    /// is `self.down`.
    fn add(&mut self, weight: f64) {
        let id = match self.ids.get(self.down.as_slice()) {
            Some(&id) => {
                self.hits += 1;
                id
            }
            None => {
                self.misses += 1;
                let id = self.evaluate();
                if self.ids.len() < self.cap {
                    self.ids.insert(self.down.as_slice().into(), id);
                }
                id
            }
        } as usize;
        self.reached[id] = true;
        self.acc.sums[id] += weight;
    }

    /// Runs the configuration evaluator on the state whose down-set is
    /// `self.down` and interns its configuration.
    fn evaluate(&mut self) -> u32 {
        for &b in &self.down {
            self.acc.state[self.fallible[b as usize]] = false;
        }
        let config = self.analysis.configuration_of(&self.acc.state);
        for &b in &self.down {
            self.acc.state[self.fallible[b as usize]] = true;
        }
        let id = self.acc.intern(config);
        self.reached.resize(self.acc.sums.len(), false);
        id
    }

    /// Ends a batch of `samples` draws: its distribution, and the memo
    /// hits and misses since the last batch on the recorder.
    fn take_batch(&mut self, samples: u64) -> ConfigDistribution {
        if let Some(r) = self.analysis.recorder {
            r.add(Counter::MemoHits, std::mem::take(&mut self.hits));
            r.add(Counter::MemoMisses, std::mem::take(&mut self.misses));
        }
        self.acc.take_reached(&mut self.reached, samples)
    }
}

/// The per-state reference loops the samplers are differenced against:
/// every sample runs the configuration evaluator, in sample order.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// One batch of `samples` plain Monte Carlo draws.
    pub(crate) fn monte_carlo(
        analysis: &Analysis<'_>,
        rng: &mut StdRng,
        samples: u64,
    ) -> ConfigDistribution {
        let fallible = analysis.space.fallible_indices();
        let mut dist = ConfigDistribution::new();
        let mut state = analysis.space.all_up();
        let weight = 1.0 / samples as f64;
        for _ in 0..samples {
            for &ix in &fallible {
                state[ix] = rng.gen::<f64>() < analysis.space.up_prob(ix);
            }
            dist.add(analysis.configuration_of(&state), weight);
        }
        dist.set_states_explored(samples);
        dist
    }

    /// One batch of `samples` draws from the mixture of the nominal
    /// (`nominal_up`) and proposal (`q_up`) measures, weighted by their
    /// likelihood ratio, with the log factors taken per component per
    /// sample.
    pub(crate) fn importance(
        analysis: &Analysis<'_>,
        rng: &mut StdRng,
        samples: u64,
        nominal_up: &[f64],
        q_up: &[f64],
        mixture: f64,
    ) -> WeightedRun {
        let fallible = analysis.space.fallible_indices();
        let mut dist = ConfigDistribution::new();
        let mut state = analysis.space.all_up();
        let inv = 1.0 / samples as f64;
        let mut weight_sum = 0.0;
        let mut weight_sq_sum = 0.0;
        for _ in 0..samples {
            let nominal = rng.gen::<f64>() < mixture;
            let mut log_p = 0.0;
            let mut log_q = 0.0;
            for (b, &ix) in fallible.iter().enumerate() {
                let p = nominal_up[b];
                let q = q_up[b];
                let draw = if nominal { p } else { q };
                let up = rng.gen::<f64>() < draw;
                state[ix] = up;
                if up {
                    log_p += p.ln();
                    log_q += q.ln();
                } else {
                    log_p += (1.0 - p).ln();
                    log_q += (1.0 - q).ln();
                }
            }
            let w = crate::importance::likelihood_ratio(log_p, log_q, mixture);
            dist.add(analysis.configuration_of(&state), w * inv);
            weight_sum += w;
            weight_sq_sum += w * w;
        }
        dist.set_states_explored(samples);
        WeightedRun {
            distribution: dist,
            weight_sum,
            weight_sq_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::{proposal_up, ImportanceOptions};
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_ftlqn::{FaultGraph, KnowPolicy};
    use fmperf_mama::{arch, synth_plane, ComponentSpace, KnowTable, PlaneSpec, PlaneTopology};
    use fmperf_obs::MetricsRecorder;

    #[test]
    fn estimates_converge_to_exact() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let exact = analysis.enumerate();
        let mc = analysis.monte_carlo(MonteCarloOptions {
            samples: 200_000,
            seed: 7,
        });
        // Every configuration estimate within 4 standard errors.
        for (c, p_exact) in exact.iter() {
            let p_mc = mc.probability(c);
            let tol = 2.1 * proportion_half_width(p_exact.max(1e-4), 200_000);
            assert!(
                (p_mc - p_exact).abs() <= tol,
                "config {:?}: mc {p_mc} vs exact {p_exact} (tol {tol})",
                c.label(&sys.model)
            );
        }
        assert!((mc.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let analysis = Analysis::new(&graph, &space);
        let a = analysis.monte_carlo(MonteCarloOptions {
            samples: 10_000,
            seed: 1,
        });
        let b = analysis.monte_carlo(MonteCarloOptions {
            samples: 10_000,
            seed: 1,
        });
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let c = analysis.monte_carlo(MonteCarloOptions {
            samples: 10_000,
            seed: 2,
        });
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn kernel_sampler_matches_naive_bit_for_bit() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::hierarchical(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let options = MonteCarloOptions {
            samples: 20_000,
            seed: 42,
        };
        // `monte_carlo` dispatches to the compiled kernel; the naive
        // sampler must consume the RNG identically, so the estimates are
        // equal, not merely close.
        let compiled = analysis.monte_carlo(options);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let naive = reference::monte_carlo(&analysis, &mut rng, options.samples);
        assert!(analysis.compile().is_some());
        assert_eq!(compiled, naive);
    }

    /// Beyond the kernel, both samplers evaluate each sampled failure set
    /// once per run through the memo, and still return exactly what
    /// evaluating every sample returns — with a bound the memo
    /// overflows, too.
    #[test]
    fn wide_samplers_match_the_per_state_reference_bit_for_bit() {
        const BATCHES: u64 = 20;
        for (target, topology, samples) in [
            (80, PlaneTopology::DeepHierarchy, 400),
            (200, PlaneTopology::RegionalTree, 400),
            (500, PlaneTopology::FleetOfAgents, 200),
        ] {
            let plane = synth_plane(&PlaneSpec::sized(target, topology));
            let graph = FaultGraph::build(&plane.model).unwrap();
            let space = ComponentSpace::build(&plane.model, &plane.mama);
            let table = KnowTable::build(&graph, &plane.mama, &space);
            for policy in [
                KnowPolicy::AnyFailedComponent,
                KnowPolicy::AllFailedComponents,
            ] {
                for unmonitored_known in [false, true] {
                    let analysis = Analysis::new(&graph, &space)
                        .with_knowledge(&table)
                        .with_policy(policy)
                        .with_unmonitored_known(unmonitored_known);
                    assert!(analysis.compile().is_none(), "{target}: beyond the kernel");
                    let nominal_up: Vec<f64> = space
                        .fallible_indices()
                        .iter()
                        .map(|&ix| space.up_prob(ix))
                        .collect();
                    for seed in [5, 6] {
                        let case = format!("{target} {policy:?} {unmonitored_known} {seed}");
                        let is_opts = ImportanceOptions {
                            samples,
                            seed,
                            ..ImportanceOptions::default()
                        };
                        let q_up = proposal_up(&nominal_up, is_opts.bias);
                        let is_ref = analysis.pool_importance(
                            is_opts,
                            is_opts.mixture,
                            BATCHES,
                            None,
                            |rng, n| {
                                reference::importance(
                                    &analysis,
                                    rng,
                                    n,
                                    &nominal_up,
                                    &q_up,
                                    is_opts.mixture,
                                )
                            },
                        );
                        let mc_opts = MonteCarloOptions { samples, seed };
                        let mc_ref = analysis.pool_monte_carlo(mc_opts, BATCHES, None, |rng, n| {
                            reference::monte_carlo(&analysis, rng, n)
                        });
                        let mut misses = Vec::new();
                        for cap in [AnalysisBudget::DEFAULT_MAX_MEMO_ENTRIES, 16] {
                            let guard = BudgetGuard::new(&AnalysisBudget {
                                deadline: None,
                                max_memo_entries: cap,
                                ..AnalysisBudget::default()
                            });
                            let rec = MetricsRecorder::new();
                            let observed = analysis.with_recorder(&rec);
                            let is = observed.importance_batched(is_opts, BATCHES, Some(&guard));
                            assert_eq!(is.distribution, is_ref.distribution, "{case} cap {cap}");
                            assert_eq!(is.info, is_ref.info, "{case} cap {cap}");
                            assert_eq!(is.failed_half_width_99, is_ref.failed_half_width_99);
                            let mc = observed.monte_carlo_batched(mc_opts, BATCHES, Some(&guard));
                            assert_eq!(mc.distribution, mc_ref.distribution, "{case} cap {cap}");
                            assert_eq!(mc.info, mc_ref.info, "{case} cap {cap}");
                            let hits = rec.counter(Counter::MemoHits);
                            let missed = rec.counter(Counter::MemoMisses);
                            assert_eq!(hits + missed, 2 * samples, "{case}: one probe per sample");
                            misses.push(missed);
                        }
                        assert!(misses[0] < samples, "{case}: the memo answers repeats");
                        assert!(misses[1] > misses[0], "{case}: a 16-entry memo overflows");
                    }
                }
            }
        }
    }

    #[test]
    fn half_width_shrinks_with_samples() {
        assert!(proportion_half_width(0.5, 10_000) < proportion_half_width(0.5, 100));
        assert_eq!(proportion_half_width(0.5, 0), f64::INFINITY);
    }
}
