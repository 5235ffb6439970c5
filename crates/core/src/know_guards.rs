//! Shared construction of `know` coverage guards over a Boolean algebra.
//!
//! Both diagram builders — the ROBDD structure function of
//! [`crate::audit`] and the MTBDD engine of [`crate::mtbdd_engine`] —
//! need the same formulas: for a
//! [`ServiceDecision`], the conjunction of `know(c, decider)` over the
//! candidate's up-support and, per skipped higher-priority alternative,
//! the policy-dependent knowledge clause about its failed components.
//! Each `know(c, t)` is the OR over the MAMA augmented minpaths of the AND
//! of the path's component variables.
//!
//! The construction is written once against the [`GuardAlgebra`] trait and
//! instantiated for both diagram managers; BDD canonicity guarantees the
//! factoring changes nothing.
//!
//! Two knobs the MTBDD engine needs and the audit does not:
//!
//! * `forced`: components forced down by an active common-cause group.
//!   Mirroring [`fmperf_mama::KnowFunction::compile`], a minpath through a
//!   forced element is dropped (that path cannot carry the knowledge), but
//!   a pair whose function was never/missing *originally* still takes the
//!   unmonitored default — "monitored but blocked" answers false, it does
//!   not become exempt.
//! * `skip_reliable`: elide variables of infallible components (their
//!   probability is exactly 1) so the diagram only tests fallible state.
//!
//! [`ServiceDecision`]: fmperf_ftlqn::faultgraph::ServiceDecision

use crate::analysis::{Analysis, Knowledge};
use fmperf_bdd::{Bdd, MtRef, Mtbdd, NodeRef};
use fmperf_ftlqn::faultgraph::ServiceDecision;
use fmperf_ftlqn::{Component, FtTaskId, KnowPolicy};
use std::collections::{BTreeMap, BTreeSet};

/// The Boolean operations guard construction needs, abstracted over the
/// diagram manager.
pub(crate) trait GuardAlgebra {
    /// Diagram reference type (canonical: equal refs ⇔ equal functions).
    type Ref: Copy + Eq;
    /// The constant true function.
    fn top(&mut self) -> Self::Ref;
    /// The constant false function.
    fn bot(&mut self) -> Self::Ref;
    /// The single-variable function for global component index `ix`.
    fn var_ix(&mut self, ix: usize) -> Self::Ref;
    /// Conjunction.
    fn and(&mut self, a: Self::Ref, b: Self::Ref) -> Self::Ref;
    /// Disjunction.
    fn or(&mut self, a: Self::Ref, b: Self::Ref) -> Self::Ref;
    /// Is this the constant false function?
    fn is_bot(&self, a: Self::Ref) -> bool;
}

impl GuardAlgebra for Bdd {
    type Ref = NodeRef;
    fn top(&mut self) -> NodeRef {
        NodeRef::TRUE
    }
    fn bot(&mut self) -> NodeRef {
        NodeRef::FALSE
    }
    fn var_ix(&mut self, ix: usize) -> NodeRef {
        self.var(ix)
    }
    fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        Bdd::and(self, a, b)
    }
    fn or(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        Bdd::or(self, a, b)
    }
    fn is_bot(&self, a: NodeRef) -> bool {
        a.is_false()
    }
}

impl GuardAlgebra for Mtbdd {
    type Ref = MtRef;
    fn top(&mut self) -> MtRef {
        MtRef::TRUE
    }
    fn bot(&mut self) -> MtRef {
        MtRef::FALSE
    }
    fn var_ix(&mut self, ix: usize) -> MtRef {
        self.var(ix)
    }
    fn and(&mut self, a: MtRef, b: MtRef) -> MtRef {
        Mtbdd::and(self, a, b)
    }
    fn or(&mut self, a: MtRef, b: MtRef) -> MtRef {
        Mtbdd::or(self, a, b)
    }
    fn is_bot(&self, a: MtRef) -> bool {
        a.is_false()
    }
}

/// Per-`(component, decider)` memo for [`GuardBuilder::know`].
pub(crate) type KnowCache<R> = BTreeMap<(Component, FtTaskId), R>;

/// Builds know guards for one analysis, against any [`GuardAlgebra`].
pub(crate) struct GuardBuilder<'a> {
    analysis: &'a Analysis<'a>,
    forced: Option<&'a BTreeSet<usize>>,
    skip_reliable: bool,
}

impl<'a> GuardBuilder<'a> {
    /// A builder for the audit's structure function: no forced
    /// components, every path variable materialised.
    pub(crate) fn new(analysis: &'a Analysis<'a>) -> Self {
        GuardBuilder {
            analysis,
            forced: None,
            skip_reliable: false,
        }
    }

    /// A builder for a common-cause context: minpaths through `forced`
    /// components are dropped, and (with `skip_reliable`) variables of
    /// infallible components are elided.
    pub(crate) fn for_context(
        analysis: &'a Analysis<'a>,
        forced: &'a BTreeSet<usize>,
        skip_reliable: bool,
    ) -> Self {
        GuardBuilder {
            analysis,
            forced: Some(forced),
            skip_reliable,
        }
    }

    /// The `know(component, decider)` guard (memoised in `cache`).
    pub(crate) fn know<A: GuardAlgebra>(
        &self,
        alg: &mut A,
        cache: &mut KnowCache<A::Ref>,
        component: Component,
        decider: FtTaskId,
    ) -> A::Ref {
        if let Some(&k) = cache.get(&(component, decider)) {
            return k;
        }
        let unreachable_value = if self.analysis.unmonitored_known {
            alg.top()
        } else {
            alg.bot()
        };
        let k = match self.analysis.knowledge {
            Knowledge::Perfect => alg.top(),
            Knowledge::Mama(table) => match table.get(component, decider) {
                None => unreachable_value,
                Some(f) if f.is_never() => unreachable_value,
                Some(f) => {
                    let mut or = alg.bot();
                    for path in &f.paths {
                        if self
                            .forced
                            .is_some_and(|forced| path.iter().any(|ix| forced.contains(ix)))
                        {
                            continue; // a forced-down element blocks this path
                        }
                        let mut and = alg.top();
                        for &ix in path {
                            if self.skip_reliable && self.analysis.space.up_prob(ix) == 1.0 {
                                continue; // infallible: the literal is vacuous
                            }
                            let v = alg.var_ix(ix);
                            and = alg.and(and, v);
                        }
                        or = alg.or(or, and);
                    }
                    or
                }
            },
        };
        cache.insert((component, decider), k);
        k
    }

    /// AND of `know(c, decider)` over a component set (short-circuits on
    /// the constant false).
    pub(crate) fn know_conjunction<'c, A: GuardAlgebra>(
        &self,
        alg: &mut A,
        cache: &mut KnowCache<A::Ref>,
        components: impl Iterator<Item = &'c Component>,
        decider: FtTaskId,
    ) -> A::Ref {
        let mut acc = alg.top();
        for &c in components {
            let k = self.know(alg, cache, c, decider);
            acc = alg.and(acc, k);
            if alg.is_bot(acc) {
                break;
            }
        }
        acc
    }

    /// The full (unsigned) guard of one [`ServiceDecision`]: knowledge of
    /// the candidate's up-support, conjoined with the policy clause for
    /// every skipped higher-priority alternative.
    pub(crate) fn decision_guard<A: GuardAlgebra>(
        &self,
        alg: &mut A,
        cache: &mut KnowCache<A::Ref>,
        d: &ServiceDecision,
    ) -> A::Ref {
        let mut guard = self.know_conjunction(alg, cache, d.up_support.iter(), d.decider);
        for (_, failed) in &d.skipped {
            let clause = if failed.is_empty() {
                // Unattributable failure: unknowable.
                alg.bot()
            } else {
                match self.analysis.policy {
                    KnowPolicy::AllFailedComponents => {
                        self.know_conjunction(alg, cache, failed.iter(), d.decider)
                    }
                    KnowPolicy::AnyFailedComponent => {
                        let mut any = alg.bot();
                        for &c in failed {
                            let k = self.know(alg, cache, c, d.decider);
                            any = alg.or(any, k);
                        }
                        any
                    }
                }
            };
            guard = alg.and(guard, clause);
        }
        guard
    }
}
