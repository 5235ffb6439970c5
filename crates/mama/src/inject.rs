//! Management-plane fault injection.
//!
//! A fault-management architecture is itself a distributed system, and
//! the paper's coverage analysis quantifies exactly how much each
//! management element contributes.  This module makes that question
//! operational: an [`Injection`] pins one management element *down*
//! (failure probability 1) in a cloned [`MamaModel`], and a
//! [`Scenario`] composes one or two injections into a what-if model a
//! campaign can analyse.
//!
//! Injections target only the management plane — managers, agents,
//! connectors and management-only processors.  Application components
//! belong to the FTLQN model; their failures are what the analysis
//! already enumerates, not what a management campaign injects.
//!
//! Pinning `fail_prob` to 1 (rather than deleting the element) keeps
//! the knowledge-propagation graph, the component space layout and the
//! `know` table derivation structurally untouched: the injected model
//! validates exactly like the baseline, the element's state bit simply
//! becomes deterministically *down*.

use crate::model::{ConnId, MamaCompId, MamaComponentKind, MamaModel, MgmtRole};
use crate::space::ComponentSpace;

/// One management-plane fault to inject: the targeted element's failure
/// probability is pinned to 1 in a cloned model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Injection {
    /// Pin a manager task down.
    KillManager(MamaCompId),
    /// Pin an agent task down.
    KillAgent(MamaCompId),
    /// Sever a connector (alive-watch, status-watch or notify).
    SeverConnector(ConnId),
    /// Fail a management-only processor (taking every hosted task's
    /// knowledge role with it, per the propagation rules).
    FailProcessor(MamaCompId),
}

impl Injection {
    /// Human-readable label, e.g. `kill-manager(m1)` or
    /// `sever(status-watch c3)`.
    pub fn label(&self, model: &MamaModel) -> String {
        match *self {
            Injection::KillManager(id) => {
                format!("kill-manager({})", model.component(id).name)
            }
            Injection::KillAgent(id) => format!("kill-agent({})", model.component(id).name),
            Injection::SeverConnector(cid) => {
                let conn = model.connector(cid);
                format!("sever({} {})", conn.kind, conn.name)
            }
            Injection::FailProcessor(id) => {
                format!("fail-processor({})", model.component(id).name)
            }
        }
    }

    /// Applies the injection to `model` in place.
    ///
    /// # Panics
    ///
    /// Panics when the target id does not have the kind the variant
    /// promises (e.g. `KillManager` aimed at an agent) — injections are
    /// constructed from [`injection_points`], which guarantees the
    /// kinds match; a mismatch means a hand-built injection broke that
    /// invariant.
    pub fn apply_to(&self, model: &mut MamaModel) {
        match *self {
            Injection::KillManager(id) => {
                let comp = &mut model.components[id.index()];
                match &mut comp.kind {
                    MamaComponentKind::MgmtTask {
                        role: MgmtRole::Manager,
                        fail_prob,
                        ..
                    } => *fail_prob = 1.0,
                    other => panic!(
                        "invariant: KillManager targets a manager task, got {other:?} for {}",
                        comp.name
                    ),
                }
            }
            Injection::KillAgent(id) => {
                let comp = &mut model.components[id.index()];
                match &mut comp.kind {
                    MamaComponentKind::MgmtTask {
                        role: MgmtRole::Agent,
                        fail_prob,
                        ..
                    } => *fail_prob = 1.0,
                    other => panic!(
                        "invariant: KillAgent targets an agent task, got {other:?} for {}",
                        comp.name
                    ),
                }
            }
            Injection::SeverConnector(cid) => {
                model.connectors[cid.index()].fail_prob = 1.0;
            }
            Injection::FailProcessor(id) => {
                let comp = &mut model.components[id.index()];
                match &mut comp.kind {
                    MamaComponentKind::MgmtProcessor { fail_prob } => *fail_prob = 1.0,
                    other => panic!(
                        "invariant: FailProcessor targets a management processor, \
                         got {other:?} for {}",
                        comp.name
                    ),
                }
            }
        }
    }

    /// The targeted element's global index in `space` (built from the
    /// model the injection was drawn from): the state bit that
    /// [`apply_to`](Injection::apply_to) pins down.
    pub fn target_index(&self, space: &ComponentSpace) -> usize {
        match *self {
            Injection::KillManager(id)
            | Injection::KillAgent(id)
            | Injection::FailProcessor(id) => space.mama_index(id),
            Injection::SeverConnector(cid) => space.connector_index(cid),
        }
    }

    /// The injected element's identity for dedup/ordering purposes.
    fn sort_key(&self) -> (u8, usize) {
        match *self {
            Injection::KillManager(id) => (0, id.index()),
            Injection::KillAgent(id) => (1, id.index()),
            Injection::FailProcessor(id) => (2, id.index()),
            Injection::SeverConnector(cid) => (3, cid.index()),
        }
    }
}

/// Every single-element injection the model supports, in a stable
/// order: managers, then agents, then management processors, then
/// connectors.
pub fn injection_points(model: &MamaModel) -> Vec<Injection> {
    let mut points = Vec::new();
    for id in model.component_ids() {
        match model.component(id).kind {
            MamaComponentKind::MgmtTask {
                role: MgmtRole::Manager,
                ..
            } => points.push(Injection::KillManager(id)),
            MamaComponentKind::MgmtTask {
                role: MgmtRole::Agent,
                ..
            } => points.push(Injection::KillAgent(id)),
            MamaComponentKind::MgmtProcessor { .. } => points.push(Injection::FailProcessor(id)),
            _ => {}
        }
    }
    for cid in model.connector_ids() {
        points.push(Injection::SeverConnector(cid));
    }
    points.sort_by_key(Injection::sort_key);
    points
}

/// Maps a management-plane element *name* (manager, agent, management
/// processor or connector) to the injection that pins it down, or
/// `None` when the name does not denote an injectable element
/// (application components belong to the FTLQN model and are
/// enumerated, not injected).
///
/// This is the cross-reference the static audit uses to replay a
/// symbolically derived cut set as a concrete injection scenario.
pub fn injection_for_element(model: &MamaModel, name: &str) -> Option<Injection> {
    if let Some(id) = model.component_by_name(name) {
        return match model.component(id).kind {
            MamaComponentKind::MgmtTask {
                role: MgmtRole::Manager,
                ..
            } => Some(Injection::KillManager(id)),
            MamaComponentKind::MgmtTask {
                role: MgmtRole::Agent,
                ..
            } => Some(Injection::KillAgent(id)),
            MamaComponentKind::MgmtProcessor { .. } => Some(Injection::FailProcessor(id)),
            MamaComponentKind::AppTask { .. } | MamaComponentKind::AppProcessor { .. } => None,
        };
    }
    model
        .connector_ids()
        .find(|&cid| model.connector(cid).name == name)
        .map(Injection::SeverConnector)
}

/// A composed what-if: one or more injections applied together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The injections, in the order they are applied.
    pub injections: Vec<Injection>,
}

impl Scenario {
    /// A single-injection scenario.
    pub fn single(injection: Injection) -> Self {
        Scenario {
            injections: vec![injection],
        }
    }

    /// A two-injection scenario.
    pub fn pair(a: Injection, b: Injection) -> Self {
        Scenario {
            injections: vec![a, b],
        }
    }

    /// `+`-joined labels of the member injections.
    pub fn label(&self, model: &MamaModel) -> String {
        self.injections
            .iter()
            .map(|i| i.label(model))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// The injected clone of `model`.
    pub fn apply(&self, model: &MamaModel) -> MamaModel {
        let mut injected = model.clone();
        for injection in &self.injections {
            injection.apply_to(&mut injected);
        }
        injected
    }
}

/// All single-injection scenarios, one per [`injection_points`] entry.
pub fn single_scenarios(model: &MamaModel) -> Vec<Scenario> {
    injection_points(model)
        .into_iter()
        .map(Scenario::single)
        .collect()
}

/// All unordered pairs of distinct injection points.
pub fn pairwise_scenarios(model: &MamaModel) -> Vec<Scenario> {
    let points = injection_points(model);
    let mut out = Vec::new();
    for (i, &a) in points.iter().enumerate() {
        for &b in &points[i + 1..] {
            out.push(Scenario::pair(a, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::space::ComponentSpace;
    use fmperf_ftlqn::examples::das_woodside_system;

    #[test]
    fn centralized_injection_points_cover_the_management_plane() {
        let sys = das_woodside_system();
        let mama = arch::centralized(&sys, 0.1);
        let points = injection_points(&mama);
        // 1 manager + 4 agents + 1 mgmt processor + every connector.
        let managers = points
            .iter()
            .filter(|p| matches!(p, Injection::KillManager(_)))
            .count();
        let agents = points
            .iter()
            .filter(|p| matches!(p, Injection::KillAgent(_)))
            .count();
        let procs = points
            .iter()
            .filter(|p| matches!(p, Injection::FailProcessor(_)))
            .count();
        let conns = points
            .iter()
            .filter(|p| matches!(p, Injection::SeverConnector(_)))
            .count();
        assert_eq!(managers, 1);
        assert_eq!(agents, 4);
        assert_eq!(procs, 1);
        assert_eq!(conns, mama.connector_count());
        assert_eq!(points.len(), 6 + mama.connector_count());
    }

    #[test]
    fn injected_model_still_validates_and_pins_the_target_down() {
        let sys = das_woodside_system();
        let mama = arch::centralized(&sys, 0.1);
        let manager = mama
            .component_by_name("m1")
            .expect("centralized architecture names its manager m1");
        let scenario = Scenario::single(Injection::KillManager(manager));
        let injected = scenario.apply(&mama);
        injected.validate(&sys.model).unwrap();
        let space = ComponentSpace::build(&sys.model, &injected);
        assert_eq!(space.up_prob(space.mama_index(manager)), 0.0);
        // The target index names exactly the pinned state bit.
        let down: Vec<usize> = (0..space.len())
            .filter(|&ix| space.up_prob(ix) == 0.0)
            .collect();
        assert_eq!(
            down,
            vec![Injection::KillManager(manager).target_index(&space)]
        );
        // The baseline is untouched.
        let base_space = ComponentSpace::build(&sys.model, &mama);
        assert!((base_space.up_prob(base_space.mama_index(manager)) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn severed_connector_becomes_a_deterministic_down_bit() {
        let sys = das_woodside_system();
        let mama = arch::centralized(&sys, 0.1);
        let cid = mama.connector_ids().next().unwrap();
        let injected = Scenario::single(Injection::SeverConnector(cid)).apply(&mama);
        injected.validate(&sys.model).unwrap();
        let space = ComponentSpace::build(&sys.model, &injected);
        assert_eq!(space.up_prob(space.connector_index(cid)), 0.0);
        assert_eq!(
            Injection::SeverConnector(cid).target_index(&space),
            space.connector_index(cid)
        );
        // A severed perfect channel gains a (deterministic) fallible bit.
        assert!(space
            .fallible_indices()
            .contains(&space.connector_index(cid)));
    }

    #[test]
    fn pairwise_scenarios_enumerate_unordered_pairs() {
        let sys = das_woodside_system();
        let mama = arch::centralized(&sys, 0.1);
        let n = injection_points(&mama).len();
        let pairs = pairwise_scenarios(&mama);
        assert_eq!(pairs.len(), n * (n - 1) / 2);
        for s in &pairs {
            assert_eq!(s.injections.len(), 2);
            assert_ne!(s.injections[0], s.injections[1]);
        }
    }

    #[test]
    fn element_names_resolve_to_their_injections() {
        let sys = das_woodside_system();
        let mama = arch::centralized(&sys, 0.1);
        let m1 = mama.component_by_name("m1").unwrap();
        assert_eq!(
            injection_for_element(&mama, "m1"),
            Some(Injection::KillManager(m1))
        );
        let ag1 = mama.component_by_name("ag1").unwrap();
        assert_eq!(
            injection_for_element(&mama, "ag1"),
            Some(Injection::KillAgent(ag1))
        );
        let cid = mama.connector_ids().next().unwrap();
        let cname = mama.connector(cid).name.clone();
        assert_eq!(
            injection_for_element(&mama, &cname),
            Some(Injection::SeverConnector(cid))
        );
        // Application components are not injectable.
        assert_eq!(injection_for_element(&mama, "AppA"), None);
        assert_eq!(injection_for_element(&mama, "no-such-element"), None);
    }

    #[test]
    #[should_panic(expected = "invariant: KillManager targets a manager task")]
    fn kind_mismatch_is_an_invariant_violation() {
        let sys = das_woodside_system();
        let mama = arch::centralized(&sys, 0.1);
        let agent = mama
            .component_by_name("ag1")
            .expect("centralized architecture names its agents ag1..ag4");
        let mut clone = mama.clone();
        Injection::KillManager(agent).apply_to(&mut clone);
    }
}
