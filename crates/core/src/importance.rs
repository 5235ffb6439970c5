//! Rare-event importance sampling of the configuration distribution.
//!
//! Naive Monte Carlo ([`Analysis::monte_carlo`]) draws component states
//! from their nominal probabilities, so a component that fails with
//! probability `1e-4` is seen down once every ten thousand samples — the
//! outage states that determine coverage are almost never visited and the
//! estimator is *sample-starved*.  This module estimates the same
//! distribution by sampling from a **biased proposal** and reweighting
//! each draw with its exact likelihood ratio, which keeps the estimator
//! unbiased while concentrating samples on the failure states:
//!
//! * **Balanced failure biasing** — every fallible component's failure
//!   probability is raised to at least `bias / N` (capped at `1/2`), so a
//!   proposal draw fails about [`ImportanceOptions::bias`] components in
//!   expectation regardless of how rare the nominal failures are.  The
//!   per-bit twist keeps the likelihood ratio a product of per-component
//!   factors that the sampler accumulates in log space.
//! * **Defensive mixture** — states are drawn from
//!   `q_mix = λ·p + (1−λ)·q` (`λ` = [`ImportanceOptions::mixture`]),
//!   which bounds every weight by `1/λ` and therefore bounds the weight
//!   variance even when the twist is badly tuned for the model at hand.
//! * **Weighted batch means** — `samples` are split over batches; each
//!   batch's weighted failure mass feeds the same Student-t machinery as
//!   the plain estimator ([`fmperf_sim::BatchMeans`]), now also at the
//!   99% level used by the differential-validation contract, plus the
//!   effective sample size `ESS = (Σw)²/Σw²` and the weight coefficient
//!   of variation as self-consistency gates for sizes where no exact
//!   answer exists.
//!
//! Samples are resolved through the compiled kernel's masked evaluator
//! and flat decision memo whenever the model compiles (≤ 64 fallible
//! components); larger models — the 50–500-component synthesized planes
//! this engine exists for — go through the wide samplers' failure-set
//! memo (`montecarlo::FailureSetMemo`), which runs the canonical
//! evaluator once per distinct sampled failure set.  Both paths draw
//! through one `Proposal::draw`, so estimates are seed-reproducible and
//! bit-identical on either path.

use crate::analysis::Analysis;
use crate::budget::{AnalysisError, BudgetGuard, EstimateInfo, IsInfo};
use crate::distribution::ConfigDistribution;
use fmperf_obs::{Counter, Phase, Span};
use fmperf_sim::BatchMeans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default failure-biasing strength: expected biased component failures
/// per proposal draw.  `1.0` is optimal when order-1 cut sets dominate
/// the failure probability (the common case for well-designed planes);
/// raise it when deeper joint failures matter.
pub const DEFAULT_BIAS: f64 = 1.0;

/// Default defensive-mixture weight of the nominal measure: bounds every
/// likelihood-ratio weight by `1/λ = 5` at a ≤ 20% variance-reduction
/// sacrifice.
pub const DEFAULT_MIXTURE: f64 = 0.2;

/// Batches for [`Analysis::importance`] (matching the guarded ladder's
/// Monte Carlo rung).
const IS_BATCHES: u64 = 20;

/// Options for [`Analysis::importance`].
#[derive(Debug, Clone, Copy)]
pub struct ImportanceOptions {
    /// Number of proposal draws.
    pub samples: u64,
    /// RNG seed (identical seeds give identical estimates).
    pub seed: u64,
    /// Failure-biasing strength: expected biased failures per draw
    /// (see [`DEFAULT_BIAS`]).
    pub bias: f64,
    /// Defensive-mixture weight `λ ∈ [0, 1]` of the nominal measure
    /// (see [`DEFAULT_MIXTURE`]; `1.0` degenerates to plain Monte
    /// Carlo).  Values outside `[0, 1]` are clamped.
    pub mixture: f64,
}

impl Default for ImportanceOptions {
    fn default() -> Self {
        ImportanceOptions {
            samples: 100_000,
            seed: 0xC0FFEE,
            bias: DEFAULT_BIAS,
            mixture: DEFAULT_MIXTURE,
        }
    }
}

/// An importance-sampled estimate with its weighted batch-means
/// provenance.
#[derive(Debug, Clone)]
pub struct ImportanceEstimate {
    /// The pooled configuration distribution: each batch is
    /// self-normalized by its mean weight, then the batches are
    /// averaged, so the total probability is exactly 1 (the raw mean
    /// weight — whose expectation is 1 — is preserved in
    /// [`IsInfo::mean_weight`](crate::budget::IsInfo::mean_weight)).
    pub distribution: ConfigDistribution,
    /// Samples, seed, batches, the failure-probability CI and the
    /// importance-sampling diagnostics ([`EstimateInfo::is`]).
    pub info: EstimateInfo,
    /// Student-t 99% half-width on
    /// [`failed_mean`](EstimateInfo::failed_mean) — the level the
    /// differential-validation contract brackets exact results at.
    pub failed_half_width_99: f64,
}

/// One batch of weighted samples: the weighted distribution plus the
/// weight moments the ESS and weight-CV diagnostics are pooled from.
#[derive(Debug, Clone)]
pub(crate) struct WeightedRun {
    pub(crate) distribution: ConfigDistribution,
    pub(crate) weight_sum: f64,
    pub(crate) weight_sq_sum: f64,
}

/// The likelihood-ratio weight `p(x) / (λ·p(x) + (1−λ)·q(x))` from the
/// log densities of the realized state under the nominal (`log_p`) and
/// proposal (`log_q`) measures.
///
/// Evaluated in log space so 500-bit probability products cannot
/// underflow: the weight only depends on `log_q − log_p`, and the result
/// is bounded by `1/λ` however extreme the ratio gets.  `λ = 1` is the
/// pure-nominal degenerate case where every weight is exactly 1 (kept
/// separate because `0 · ∞` would otherwise poison states with zero
/// nominal probability).
#[inline]
pub(crate) fn likelihood_ratio(log_p: f64, log_q: f64, mixture: f64) -> f64 {
    if mixture >= 1.0 {
        return 1.0;
    }
    1.0 / (mixture + (1.0 - mixture) * (log_q - log_p).exp())
}

/// The balanced failure-biasing proposal: per-bit **up** probabilities
/// derived from the nominal ones by raising every failure probability to
/// at least `min(bias / N, 1/2)`.
///
/// Components that cannot fail (`up = 1`) and components already failing
/// more often than the floor keep their nominal probability — biasing
/// them would either waste draws on zero-probability states or *reduce*
/// the failure rate.
pub fn proposal_up(nominal_up: &[f64], bias: f64) -> Vec<f64> {
    let n = nominal_up.len().max(1) as f64;
    let floor = (bias.max(0.0) / n).min(0.5);
    nominal_up
        .iter()
        .map(|&up| {
            // Leave untouched probabilities bit-identical to nominal so
            // their log-ratio contribution is exactly zero.
            if up >= 1.0 || 1.0 - up >= floor {
                up
            } else {
                1.0 - floor
            }
        })
        .collect()
}

/// One bit of a [`Proposal`]: its nominal (`p`) and proposal (`q`) up
/// probabilities and the log factors a draw adds to the nominal and
/// proposal log densities.
#[derive(Debug, Clone, Copy)]
struct BitFactors {
    p: f64,
    q: f64,
    ln_p: f64,
    ln_q: f64,
    ln_not_p: f64,
    ln_not_q: f64,
}

/// The sampling measure of one importance-sampling run: per fallible
/// bit, the nominal and [`proposal_up`] probabilities with their log
/// factors, built once per run instead of once per component per
/// sample, and the defensive-mixture weight.
#[derive(Debug, Clone)]
pub(crate) struct Proposal {
    bits: Vec<BitFactors>,
    mixture: f64,
}

impl Proposal {
    /// The proposal over `nominal_up` (one entry per fallible bit) for
    /// failure-biasing strength `bias` and mixture weight `mixture`
    /// (already clamped to `[0, 1]`).
    pub(crate) fn new(nominal_up: &[f64], bias: f64, mixture: f64) -> Proposal {
        let q_up = proposal_up(nominal_up, bias);
        Proposal {
            bits: nominal_up
                .iter()
                .zip(&q_up)
                .map(|(&p, &q)| BitFactors {
                    p,
                    q,
                    ln_p: p.ln(),
                    ln_q: q.ln(),
                    ln_not_p: (1.0 - p).ln(),
                    ln_not_q: (1.0 - q).ln(),
                })
                .collect(),
            mixture,
        }
    }

    /// Number of fallible bits.
    pub(crate) fn bit_count(&self) -> usize {
        self.bits.len()
    }

    /// Draws one state from the mixture `λ·p + (1−λ)·q`, reporting each
    /// bit's outcome (`true` = up) to `bit` in bit order, and returns
    /// its likelihood-ratio weight `p(x)/q_mix(x)`.
    ///
    /// The RNG order — one mixture-branch draw, then one draw per bit —
    /// is the one every importance sampler shares, so a seed yields the
    /// same states and weights on the kernel and the wide path.
    #[inline]
    pub(crate) fn draw(&self, rng: &mut impl Rng, mut bit: impl FnMut(usize, bool)) -> f64 {
        let nominal = rng.gen::<f64>() < self.mixture;
        let mut log_p = 0.0;
        let mut log_q = 0.0;
        for (b, f) in self.bits.iter().enumerate() {
            let draw = if nominal { f.p } else { f.q };
            if rng.gen::<f64>() < draw {
                log_p += f.ln_p;
                log_q += f.ln_q;
                bit(b, true);
            } else {
                log_p += f.ln_not_p;
                log_q += f.ln_not_q;
                bit(b, false);
            }
        }
        likelihood_ratio(log_p, log_q, self.mixture)
    }
}

impl Analysis<'_> {
    /// Estimates the configuration distribution by importance sampling
    /// with [`IS_BATCHES`] batches and no budget guard.  Works for any
    /// number of components.
    pub fn importance(&self, options: ImportanceOptions) -> ImportanceEstimate {
        self.importance_batched(options, IS_BATCHES, None)
    }

    /// [`importance`](Analysis::importance) with the degenerate input
    /// surfaced as a typed error.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::NoSamples`] when `options.samples` is zero.
    pub fn try_importance(
        &self,
        options: ImportanceOptions,
    ) -> Result<ImportanceEstimate, AnalysisError> {
        if options.samples == 0 {
            return Err(AnalysisError::NoSamples);
        }
        Ok(self.importance(options))
    }

    /// Batched importance-sampled estimation with weighted batch-means
    /// confidence intervals — the rare-event rung of the degradation
    /// ladder.
    ///
    /// `options.samples` is split over `batches` (at least 2) equal
    /// batches; each batch's weighted failure mass feeds Student-t 95%
    /// and 99% intervals.  With a guard, the deadline is polled *between*
    /// batches once the two-batch minimum has run, so this estimator
    /// always returns a distribution and a finite-df interval even when
    /// the deadline has already expired.
    pub fn importance_batched(
        &self,
        options: ImportanceOptions,
        batches: u64,
        guard: Option<&BudgetGuard>,
    ) -> ImportanceEstimate {
        let _span = Span::enter(self.recorder, Phase::Sampling);
        let mixture = options.mixture.clamp(0.0, 1.0);
        let nominal_up: Vec<f64> = self
            .space
            .fallible_indices()
            .iter()
            .map(|&ix| self.space.up_prob(ix))
            .collect();
        let proposal = Proposal::new(&nominal_up, options.bias, mixture);
        let mut sampler = self.sampler(guard);
        self.pool_importance(options, mixture, batches, guard, |rng, n| {
            sampler.importance_run(rng, n, &proposal)
        })
    }

    /// The batching and pooling of
    /// [`importance_batched`](Analysis::importance_batched) around
    /// `run`, which draws one batch of `n` weighted samples.
    pub(crate) fn pool_importance(
        &self,
        options: ImportanceOptions,
        mixture: f64,
        batches: u64,
        guard: Option<&BudgetGuard>,
        mut run: impl FnMut(&mut StdRng, u64) -> WeightedRun,
    ) -> ImportanceEstimate {
        let batches = batches.max(2);
        let per_batch = (options.samples / batches).max(1);
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut bm = BatchMeans::new();
        let mut merged = ConfigDistribution::new();
        let mut weight_sum = 0.0;
        let mut weight_sq_sum = 0.0;
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
            let run = run(&mut rng, per_batch);
            // Self-normalize the batch by its mean weight so the batch
            // distribution is a distribution (total exactly 1), like the
            // plain estimator's batches.  The raw mass — whose
            // expectation is 1 — is preserved in the weight moments.
            let scale = if run.weight_sum > 0.0 {
                per_batch as f64 / run.weight_sum
            } else {
                1.0
            };
            let mut batch = ConfigDistribution::new();
            for (config, p) in run.distribution.iter() {
                batch.add(config.clone(), p * scale);
            }
            bm.push_batch(batch.failed_probability());
            merged.merge(batch);
            weight_sum += run.weight_sum;
            weight_sq_sum += run.weight_sq_sum;
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
        let ci99 = bm.confidence_interval_99();
        let ess = if weight_sq_sum > 0.0 {
            weight_sum * weight_sum / weight_sq_sum
        } else {
            0.0
        };
        let weight_cv = if weight_sum > 0.0 {
            (drawn as f64 * weight_sq_sum / (weight_sum * weight_sum) - 1.0)
                .max(0.0)
                .sqrt()
        } else {
            f64::INFINITY
        };
        ImportanceEstimate {
            distribution,
            info: EstimateInfo {
                samples: drawn,
                seed: options.seed,
                batches: completed,
                failed_mean: ci.mean,
                failed_half_width: ci.half_width,
                is: Some(IsInfo {
                    ess,
                    weight_cv,
                    mean_weight: weight_sum / drawn as f64,
                    bias: options.bias,
                    mixture,
                }),
            },
            failed_half_width_99: ci99.half_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::reference;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_mama::{arch, ComponentSpace, KnowTable};

    #[test]
    fn proposal_floors_rare_failures_and_keeps_common_ones() {
        let nominal = [1.0 - 1e-5, 0.5, 1.0, 0.2];
        let q = proposal_up(&nominal, 1.0);
        // 1e-5 failure raised to the 1/4 floor.
        assert!((q[0] - 0.75).abs() < 1e-12);
        // Already failing past the floor: untouched.
        assert_eq!(q[1], 0.5);
        // Cannot fail: untouched (biasing it would sample impossible
        // states).
        assert_eq!(q[2], 1.0);
        assert_eq!(q[3], 0.2);
        // The floor caps at 1/2 for aggressive bias settings.
        let q = proposal_up(&[1.0 - 1e-5, 1.0 - 1e-5], 100.0);
        assert_eq!(q, vec![0.5, 0.5]);
    }

    #[test]
    fn likelihood_ratio_is_bounded_and_degenerates() {
        // λ bounds the weight from above ...
        assert!(likelihood_ratio(0.0, -800.0, 0.2) <= 1.0 / 0.2 + 1e-12);
        // ... zero nominal probability zeroes the weight ...
        assert_eq!(likelihood_ratio(f64::NEG_INFINITY, -1.0, 0.2), 0.0);
        // ... and λ = 1 is plain Monte Carlo, weight exactly 1 even for
        // impossible states.
        assert_eq!(likelihood_ratio(f64::NEG_INFINITY, -1.0, 1.0), 1.0);
        assert_eq!(likelihood_ratio(-3.0, -3.0, 0.2), 1.0);
    }

    #[test]
    fn kernel_sampler_matches_naive_bit_for_bit() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::hierarchical(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        assert!(analysis.compile().is_some());
        let options = ImportanceOptions {
            samples: 20_000,
            seed: 42,
            ..ImportanceOptions::default()
        };
        // The kernel path consumed by `importance` vs the per-state
        // reference loop with the same seed: weighted estimates must be
        // equal, not merely close.
        let compiled = analysis.importance(options);
        let nominal_up: Vec<f64> = analysis
            .space
            .fallible_indices()
            .iter()
            .map(|&ix| analysis.space.up_prob(ix))
            .collect();
        let q_up = proposal_up(&nominal_up, options.bias);
        let naive =
            analysis.pool_importance(options, options.mixture, IS_BATCHES, None, |rng, n| {
                reference::importance(&analysis, rng, n, &nominal_up, &q_up, options.mixture)
            });
        assert_eq!(compiled.distribution, naive.distribution);
        assert_eq!(compiled.info, naive.info);
    }

    #[test]
    fn weighted_estimate_covers_exact_on_the_paper_model() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let exact = analysis.enumerate().failed_probability();
        let est = analysis.importance(ImportanceOptions {
            samples: 200_000,
            seed: 7,
            ..ImportanceOptions::default()
        });
        assert!(
            (est.info.failed_mean - exact).abs() <= est.failed_half_width_99,
            "99% CI {} ± {} must cover exact {exact}",
            est.info.failed_mean,
            est.failed_half_width_99
        );
        // The pooled distribution is self-normalized to exactly 1, and
        // the raw mean weight — an unbiased estimate of 1 — stays close.
        assert!((est.distribution.total_probability() - 1.0).abs() < 1e-9);
        let is = est.info.is.unwrap();
        assert!((is.mean_weight - 1.0).abs() < 0.05);
        assert!(is.ess > 0.0 && is.ess <= est.info.samples as f64);
        assert!(is.weight_cv.is_finite());
    }

    #[test]
    fn mixture_one_reduces_to_plain_monte_carlo() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let analysis = Analysis::new(&graph, &space);
        let est = analysis.importance(ImportanceOptions {
            samples: 10_000,
            seed: 3,
            bias: 1.0,
            mixture: 1.0,
        });
        // Every weight is exactly 1, so the weighted mass is exactly the
        // sample mass.
        assert!((est.distribution.total_probability() - 1.0).abs() < 1e-9);
        let is = est.info.is.unwrap();
        assert!((is.ess - est.info.samples as f64).abs() < 1e-6);
        assert!(is.weight_cv.abs() < 1e-9);
        assert_eq!(is.mean_weight, 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let analysis = Analysis::new(&graph, &space);
        let opts = ImportanceOptions {
            samples: 10_000,
            seed: 11,
            ..ImportanceOptions::default()
        };
        let a = analysis.importance(opts);
        let b = analysis.importance(opts);
        assert_eq!(a.distribution.max_abs_diff(&b.distribution), 0.0);
        assert_eq!(a.info, b.info);
        let c = analysis.importance(ImportanceOptions { seed: 12, ..opts });
        assert!(a.distribution.max_abs_diff(&c.distribution) > 0.0);
    }

    #[test]
    fn zero_samples_is_a_typed_error() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let space = ComponentSpace::app_only(&sys.model);
        let analysis = Analysis::new(&graph, &space);
        assert!(matches!(
            analysis.try_importance(ImportanceOptions {
                samples: 0,
                ..ImportanceOptions::default()
            }),
            Err(AnalysisError::NoSamples)
        ));
    }
}
