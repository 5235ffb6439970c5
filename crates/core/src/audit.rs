//! Symbolic structural audit: minimal cut sets, SPOF proofs and
//! provable coverage gaps.
//!
//! The campaign machinery ([`crate::campaign`]) answers the coverage
//! question *dynamically*: inject a management fault, re-analyse, read
//! the loss.  This module answers it *statically*, from the compiled
//! Boolean structure alone:
//!
//! * **Application-plane cut sets** — minimal sets of application
//!   components whose joint failure (management held up, so every
//!   failure is detected) leaves no user chain operational.  The system
//!   structure function is compiled to one BDD by the same
//!   region-enumeration the MTBDD engine uses ([`crate::mtbdd_engine`]),
//!   and cuts are extracted with [`Bdd::minimal_cuts`].
//! * **Management-plane cut sets** — minimal sets of management
//!   elements (managers, agents, management processors, connectors)
//!   whose joint failure destroys *all* coverage: no deciding task can
//!   learn the state of any component it needs to know about.  Order-1
//!   cuts are structural single points of failure — the centralized
//!   architecture's manager is the canonical example.
//! * **Provably-uncovered components** — decision-relevant components
//!   whose `know` guard is unsatisfiable: their failure can never be
//!   detected, under any fault pattern.
//! * **Dead management edges** — watch/notify connectors that appear in
//!   no know-guard's support: severing them cannot affect coverage.
//! * **Birnbaum criticality** — `∂ Pr[system operational] / ∂ p_i` for
//!   every fallible element, read off the BDD's lo/hi cofactors.
//!
//! Every static claim is falsifiable dynamically: [`replay_mgmt_cut`]
//! re-derives a reported management cut as a [`fmperf_mama::inject`]
//! scenario and checks the rebuilt know table really loses all
//! coverage, and [`replay_app_cut`] drives the configuration evaluator
//! at the cut's state vector.  The differential tests in
//! `tests/audit_structural.rs` additionally run the converse direction
//! (no dynamic finding of order ≤ k that the audit missed).

use crate::analysis::Analysis;
use crate::campaign::covered_components;
use crate::know_guards::{GuardBuilder, KnowCache};
use fmperf_bdd::{Bdd, NodeRef};
use fmperf_ftlqn::{Component, FaultGraph, KnowPolicy};
use fmperf_mama::inject::{injection_for_element, Scenario};
use fmperf_mama::model::MamaComponentKind;
use fmperf_mama::{ComponentSpace, KnowTable, MamaModel};
use std::collections::BTreeMap;
use std::fmt;

/// Options of the structural audit.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Maximum cut-set order to search (default 3).
    pub max_order: usize,
    /// Skipped-alternative knowledge policy (see
    /// [`Analysis::with_policy`]).
    pub policy: KnowPolicy,
    /// Treat unmonitored components as vacuously known (see
    /// [`Analysis::with_unmonitored_known`]).  Under this flag no
    /// component is ever provably uncovered.
    pub unmonitored_known: bool,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions {
            max_order: 3,
            policy: KnowPolicy::AnyFailedComponent,
            unmonitored_known: false,
        }
    }
}

/// Why an audit could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// Building the structure function enumerates `2^A` application
    /// states; beyond this many fallible application components that is
    /// infeasible.
    TooLarge {
        /// Fallible application components in the model.
        fallible: usize,
        /// The audit's enumeration ceiling.
        limit: usize,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::TooLarge { fallible, limit } => write!(
                f,
                "{fallible} fallible application components exceed the audit's \
                 structure-function ceiling of {limit} (2^A region enumeration)"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// A decision-relevant component whose failure can never be detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncoveredComponent {
    /// Component name.
    pub name: String,
    /// `true` when know paths exist but none can ever hold (every path
    /// rides a certainly-failed element); `false` when no deciding task
    /// has any knowledge path at all.
    pub has_paths: bool,
}

/// Management-plane findings (absent for app-only models).
#[derive(Debug, Clone)]
pub struct MgmtAudit {
    /// Components some deciding task can learn about with everything up
    /// — the reference set all coverage cuts are measured against.
    pub baseline_covered: Vec<String>,
    /// Minimal sets of management elements whose joint failure empties
    /// the covered set, up to the audit's `max_order`.  Order-1 cuts
    /// are management-plane SPOFs.
    pub cuts: Vec<Vec<String>>,
    /// Decision-relevant components whose failure is provably never
    /// detected.
    pub uncovered: Vec<UncoveredComponent>,
    /// Watch/notify connectors appearing in no know-guard support:
    /// they can never affect coverage.
    pub dead_edges: Vec<String>,
}

impl MgmtAudit {
    /// Names of the order-1 coverage cuts (management-plane SPOFs).
    pub fn spofs(&self) -> Vec<&str> {
        self.cuts
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0].as_str())
            .collect()
    }
}

/// The complete result of a structural audit.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The `max_order` the cut search ran with.
    pub max_order: usize,
    /// Total indexed elements (components + connectors).
    pub components: usize,
    /// Elements with up-probability below 1.
    pub fallible: usize,
    /// `true` when the system is failed even with every element up
    /// (degenerate model; the cut lists are then empty).
    pub baseline_failed: bool,
    /// Minimal application-plane cut sets up to `max_order`, management
    /// held up.  Order-1 cuts are application SPOFs.
    pub app_cuts: Vec<Vec<String>>,
    /// Management-plane findings, when the model has a management
    /// architecture.
    pub mgmt: Option<MgmtAudit>,
    /// Birnbaum criticality `Pr[op | i up] − Pr[op | i down]` per
    /// fallible element, sorted descending.
    pub criticality: Vec<(String, f64)>,
}

impl AuditReport {
    /// Names of the order-1 application cuts (application SPOFs).
    pub fn app_spofs(&self) -> Vec<&str> {
        self.app_cuts
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0].as_str())
            .collect()
    }

    /// Names of the order-1 management cuts, if a management plane was
    /// audited.
    pub fn mgmt_spofs(&self) -> Vec<&str> {
        self.mgmt.as_ref().map(MgmtAudit::spofs).unwrap_or_default()
    }
}

/// Ceiling on fallible application components: the structure function
/// enumerates `2^A · 2^S` evaluator regions, like
/// [`Analysis::compile_mtbdd`].
pub const MAX_APP_FALLIBLE: usize = 20;

/// Runs the structural audit (see the [module docs](self)).
///
/// Pass `mama: None` (or a management model with no components) to
/// audit the application plane alone.
///
/// # Errors
///
/// [`AuditError::TooLarge`] when more than [`MAX_APP_FALLIBLE`]
/// application components are fallible.
pub fn audit(
    graph: &FaultGraph<'_>,
    mama: Option<&MamaModel>,
    opts: &AuditOptions,
) -> Result<AuditReport, AuditError> {
    let ft = graph.model();
    let mama = mama.filter(|m| m.component_count() > 0);
    let space = match mama {
        Some(m) => ComponentSpace::build(ft, m),
        None => ComponentSpace::app_only(ft),
    };
    let table = mama.map(|m| KnowTable::build(graph, m, &space));
    let mut analysis = Analysis::new(graph, &space)
        .with_policy(opts.policy)
        .with_unmonitored_known(opts.unmonitored_known);
    if let Some(t) = &table {
        analysis = analysis.with_knowledge(t);
    }

    let app_fallible: Vec<usize> = space
        .fallible_indices()
        .into_iter()
        .filter(|&ix| ix < space.app_count())
        .collect();
    if app_fallible.len() > MAX_APP_FALLIBLE {
        return Err(AuditError::TooLarge {
            fallible: app_fallible.len(),
            limit: MAX_APP_FALLIBLE,
        });
    }

    // --- Compile the "system operational" structure function: OR over
    // (application cube ∧ signed know-guards) of every region whose
    // configuration keeps at least one user chain running.  Same region
    // factoring as the MTBDD engine, but the diagram is a plain BDD of
    // the operational predicate, so cuts can be read off it.
    let mut bdd = Bdd::new(space.len());
    let guards = GuardBuilder::new(&analysis);
    let mut cache: KnowCache<NodeRef> = KnowCache::new();
    let n_services = ft.service_count();
    let mut f_op = NodeRef::FALSE;
    let mut state = space.all_up();
    for mask in 0..(1u64 << app_fallible.len()) {
        let mut cube = NodeRef::TRUE;
        for (bit, &ix) in app_fallible.iter().enumerate() {
            let up = mask & (1 << bit) != 0;
            state[ix] = up;
            let lit = if up { bdd.var(ix) } else { bdd.nvar(ix) };
            cube = bdd.and(cube, lit);
        }
        for sigma in 0..(1u64 << n_services) {
            let outcomes: Vec<bool> = (0..n_services).map(|s| sigma & (1 << s) != 0).collect();
            let (config, decisions) = graph.configuration_with_outcomes(&state, &outcomes);
            // Canonical form, as in the MTBDD engine: an unconsulted
            // service must carry σ_s = false.
            if decisions
                .iter()
                .zip(&outcomes)
                .any(|(d, &o)| d.is_none() && o)
            {
                continue;
            }
            if config.is_failed() {
                continue;
            }
            let mut g = cube;
            for (s, decision) in decisions.iter().enumerate() {
                let Some(d) = decision else { continue };
                let guard = guards.decision_guard(&mut bdd, &mut cache, d);
                let signed = if outcomes[s] { guard } else { bdd.not(guard) };
                g = bdd.and(g, signed);
                if g.is_false() {
                    break;
                }
            }
            f_op = bdd.or(f_op, g);
        }
    }

    // Baseline point: everything up except deterministically-down
    // elements — the same point the campaign's coverage probe uses.
    let baseline: Vec<bool> = (0..space.len()).map(|ix| space.up_prob(ix) > 0.0).collect();
    let baseline_failed = !bdd.evaluate(f_op, &baseline);
    let f_fail = bdd.not(f_op);

    // --- Application-plane cuts: application candidates only, the
    // management plane held at its baseline (all up), so every cut is a
    // pure application failure pattern.
    let app_candidates: Vec<usize> = app_fallible
        .iter()
        .copied()
        .filter(|&ix| baseline[ix])
        .collect();
    let app_cuts = if baseline_failed {
        Vec::new()
    } else {
        name_sets(
            &space,
            bdd.minimal_cuts(f_fail, &baseline, &app_candidates, opts.max_order),
        )
    };

    // --- Birnbaum criticality via the lo/hi cofactor path.
    let up_probs: Vec<f64> = (0..space.len()).map(|ix| space.up_prob(ix)).collect();
    let mut criticality: Vec<(String, f64)> = space
        .fallible_indices()
        .into_iter()
        .map(|ix| {
            (
                space.name(ix).to_string(),
                bdd.birnbaum(f_op, ix, &up_probs),
            )
        })
        .collect();
    criticality.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));

    // --- Management plane.
    let mgmt = match (mama, &table) {
        (Some(m), Some(t)) => {
            // Per-component coverage: OR of know(c, decider) over every
            // decider that may consult c.  The guards are monotone, so
            // satisfiability equals truth at the baseline point.
            let mut cov: BTreeMap<Component, NodeRef> = BTreeMap::new();
            for (&(c, decider), _) in t.iter() {
                let k = guards.know(&mut bdd, &mut cache, c, decider);
                let acc = cov.entry(c).or_insert(NodeRef::FALSE);
                *acc = bdd.or(*acc, k);
            }
            let covered: Vec<(Component, NodeRef)> = cov
                .iter()
                .filter(|(_, &g)| bdd.evaluate(g, &baseline))
                .map(|(&c, &g)| (c, g))
                .collect();
            let mut baseline_covered: Vec<String> = covered
                .iter()
                .map(|&(c, _)| ft.component_name(c).to_string())
                .collect();
            baseline_covered.sort();

            // Candidates are exactly the injectable elements: managers,
            // agents, management processors and connectors.
            let mut candidates: Vec<usize> = Vec::new();
            for id in m.component_ids() {
                match m.component(id).kind {
                    MamaComponentKind::MgmtTask { .. }
                    | MamaComponentKind::MgmtProcessor { .. } => {
                        candidates.push(space.mama_index(id));
                    }
                    _ => {}
                }
            }
            for cid in m.connector_ids() {
                candidates.push(space.connector_index(cid));
            }
            candidates.retain(|&ix| baseline[ix]);

            // A management cut empties the covered set: every covered
            // component's coverage function goes false.
            let cuts = if covered.is_empty() {
                Vec::new()
            } else {
                let mut lose_all = NodeRef::TRUE;
                for &(_, g) in &covered {
                    let lost = bdd.not(g);
                    lose_all = bdd.and(lose_all, lost);
                }
                name_sets(
                    &space,
                    bdd.minimal_cuts(lose_all, &baseline, &candidates, opts.max_order),
                )
            };

            // Provably-uncovered components: decision-relevant (they
            // have a know-table entry) yet unsatisfiable coverage.
            let mut uncovered: Vec<UncoveredComponent> = cov
                .iter()
                .filter(|(_, &g)| !bdd.evaluate(g, &baseline))
                .map(|(&c, _)| {
                    let has_paths = t.iter().any(|(&(tc, _), f)| tc == c && !f.is_never());
                    UncoveredComponent {
                        name: ft.component_name(c).to_string(),
                        has_paths,
                    }
                })
                .collect();
            uncovered.sort_by(|a, b| a.name.cmp(&b.name));

            // Dead edges: connectors in no guard's support.
            let mut live: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
            for (&(c, decider), _) in t.iter() {
                let k = guards.know(&mut bdd, &mut cache, c, decider);
                live.extend(bdd.support(k));
            }
            let dead_edges: Vec<String> = m
                .connector_ids()
                .filter(|&cid| !live.contains(&space.connector_index(cid)))
                .map(|cid| m.connector(cid).name.clone())
                .collect();

            Some(MgmtAudit {
                baseline_covered,
                cuts,
                uncovered,
                dead_edges,
            })
        }
        _ => None,
    };

    Ok(AuditReport {
        max_order: opts.max_order,
        components: space.len(),
        fallible: space.fallible_indices().len(),
        baseline_failed,
        app_cuts,
        mgmt,
        criticality,
    })
}

/// Maps index sets to sorted name sets, sorted by (order, names).
fn name_sets(space: &ComponentSpace, cuts: Vec<Vec<usize>>) -> Vec<Vec<String>> {
    let mut named: Vec<Vec<String>> = cuts
        .into_iter()
        .map(|cut| {
            let mut names: Vec<String> = cut
                .into_iter()
                .map(|ix| space.name(ix).to_string())
                .collect();
            names.sort();
            names
        })
        .collect();
    named.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));
    named
}

/// Outcome of replaying one audit finding dynamically.
#[derive(Debug, Clone)]
pub struct CutConfirmation {
    /// The element names of the replayed cut.
    pub elements: Vec<String>,
    /// The injection-scenario label (management cuts) or the state
    /// description (application cuts).
    pub label: String,
    /// `true` when the dynamic replay confirms the static claim.
    pub confirmed: bool,
    /// Baseline-covered components lost under the injection
    /// (management cuts only).
    pub coverage_loss: Option<usize>,
}

/// Replays a management-plane cut as a concrete injection scenario:
/// every element is pinned down via [`fmperf_mama::inject`], the
/// component space and know table are rebuilt from the injected model,
/// and the static coverage probe must come back empty.
///
/// # Errors
///
/// An element name that maps to no injectable management element.
pub fn replay_mgmt_cut(
    graph: &FaultGraph<'_>,
    mama: &MamaModel,
    cut: &[String],
) -> Result<CutConfirmation, String> {
    let injections = cut
        .iter()
        .map(|name| {
            injection_for_element(mama, name)
                .ok_or_else(|| format!("`{name}` is not an injectable management element"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let scenario = Scenario { injections };
    let label = scenario.label(mama);
    let injected = scenario.apply(mama);

    let base_space = ComponentSpace::build(graph.model(), mama);
    let base_table = KnowTable::build(graph, mama, &base_space);
    let baseline = covered_components(graph, &base_space, &base_table);

    let space = ComponentSpace::build(graph.model(), &injected);
    let table = KnowTable::build(graph, &injected, &space);
    let covered = covered_components(graph, &space, &table);

    Ok(CutConfirmation {
        elements: cut.to_vec(),
        label,
        confirmed: covered.is_empty(),
        coverage_loss: Some(baseline.difference(&covered).count()),
    })
}

/// Replays an application-plane cut through the configuration
/// evaluator: with the cut's components down, the management plane up
/// and knowledge answered by the real know table, the system must be
/// failed — and must be operational again with any single member
/// restored (minimality).
///
/// # Errors
///
/// An element name not present in the component space.
pub fn replay_app_cut(
    graph: &FaultGraph<'_>,
    mama: Option<&MamaModel>,
    cut: &[String],
    opts: &AuditOptions,
) -> Result<CutConfirmation, String> {
    let ft = graph.model();
    let mama = mama.filter(|m| m.component_count() > 0);
    let space = match mama {
        Some(m) => ComponentSpace::build(ft, m),
        None => ComponentSpace::app_only(ft),
    };
    let table = mama.map(|m| KnowTable::build(graph, m, &space));
    let mut analysis = Analysis::new(graph, &space)
        .with_policy(opts.policy)
        .with_unmonitored_known(opts.unmonitored_known);
    if let Some(t) = &table {
        analysis = analysis.with_knowledge(t);
    }

    let index_of = |name: &str| -> Result<usize, String> {
        (0..space.len())
            .find(|&ix| space.name(ix) == name)
            .ok_or_else(|| format!("`{name}` is not a component of this model"))
    };
    let mut state: Vec<bool> = (0..space.len()).map(|ix| space.up_prob(ix) > 0.0).collect();
    let mut indices = Vec::with_capacity(cut.len());
    for name in cut {
        let ix = index_of(name)?;
        state[ix] = false;
        indices.push(ix);
    }
    let mut confirmed = analysis.configuration_of(&state).is_failed();
    // Minimality: restoring any single member must recover the system.
    for &ix in &indices {
        state[ix] = true;
        confirmed &= !analysis.configuration_of(&state).is_failed();
        state[ix] = false;
    }
    Ok(CutConfirmation {
        elements: cut.to_vec(),
        label: format!("down({})", cut.join(" + ")),
        confirmed,
        coverage_loss: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_mama::arch;

    fn app_cut_names() -> Vec<Vec<&'static str>> {
        // Hand-derived: the system fails iff both user chains are dead.
        // Chain A dies with AppA/proc1 or both servers; chain B with
        // AppB/proc2 or both servers (a server is dead with its task or
        // its processor down).  All minimal cuts are therefore order-2:
        // one element per chain head, or one element per server.
        vec![
            vec!["AppA", "AppB"],
            vec!["AppA", "proc2"],
            vec!["AppB", "proc1"],
            vec!["AppB", "proc3", "proc4"], // never minimal: superset check below
        ]
    }

    #[test]
    fn app_plane_cuts_of_the_paper_system_are_the_eight_order_two_sets() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let report = audit(&graph, None, &AuditOptions::default()).unwrap();
        assert!(!report.baseline_failed);
        assert!(report.app_spofs().is_empty());
        let expected: Vec<Vec<String>> = [
            ["AppA", "AppB"],
            ["AppA", "proc2"],
            ["AppB", "proc1"],
            ["Server1", "Server2"],
            ["Server1", "proc4"],
            ["Server2", "proc3"],
            ["proc1", "proc2"],
            ["proc3", "proc4"],
        ]
        .iter()
        .map(|c| c.iter().map(|s| s.to_string()).collect())
        .collect();
        assert_eq!(report.app_cuts, expected);
        // The helper's order-3 superset is indeed not minimal.
        assert!(app_cut_names()
            .iter()
            .any(|c| c.len() == 3 && !report.app_cuts.iter().any(|r| r.len() == 3)));
    }

    #[test]
    fn centralized_manager_is_an_order_one_management_cut() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let report = audit(&graph, Some(&mama), &AuditOptions::default()).unwrap();
        let spofs = report.mgmt_spofs();
        assert!(spofs.contains(&"m1"), "{spofs:?}");
        let mgmt = report.mgmt.as_ref().unwrap();
        assert!(!mgmt.baseline_covered.is_empty());
    }

    #[test]
    fn hierarchical_has_no_order_one_management_cut() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::hierarchical(&sys, 0.1);
        let report = audit(&graph, Some(&mama), &AuditOptions::default()).unwrap();
        assert!(report.mgmt_spofs().is_empty(), "{:?}", report.mgmt_spofs());
    }

    #[test]
    fn replayed_management_spof_loses_all_coverage() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let report = audit(&graph, Some(&mama), &AuditOptions::default()).unwrap();
        for cut in &report.mgmt.as_ref().unwrap().cuts {
            let conf = replay_mgmt_cut(&graph, &mama, cut).unwrap();
            assert!(conf.confirmed, "{}", conf.label);
            assert!(conf.coverage_loss.unwrap() > 0, "{}", conf.label);
        }
    }

    #[test]
    fn replayed_app_cuts_fail_the_evaluator() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let opts = AuditOptions::default();
        let report = audit(&graph, None, &opts).unwrap();
        for cut in &report.app_cuts {
            let conf = replay_app_cut(&graph, None, cut, &opts).unwrap();
            assert!(conf.confirmed, "{}", conf.label);
        }
    }

    #[test]
    fn criticality_is_reported_for_every_fallible_element() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let report = audit(&graph, Some(&mama), &AuditOptions::default()).unwrap();
        let space = ComponentSpace::build(&sys.model, &mama);
        assert_eq!(report.criticality.len(), space.fallible_indices().len());
        // Birnbaum values are sorted descending.
        for w in report.criticality.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
