//! LQN model types and builder API.
//!
//! A model is assembled imperatively (processors, then tasks, then entries,
//! then calls) and checked by [`LqnModel::validate`], which the solver also
//! runs.  The model mirrors the FTLQN notation of the paper (Fig. 1) minus
//! the fault-tolerance annotations, which live in `fmperf-ftlqn`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a processor in an [`LqnModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessorId(pub(crate) u32);

/// Index of a task in an [`LqnModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub(crate) u32);

/// Index of an entry in an [`LqnModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntryId(pub(crate) u32);

impl ProcessorId {
    /// Raw index of this processor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl TaskId {
    /// Raw index of this task.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl EntryId {
    /// Raw index of this entry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}
impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Number of servers of a station (task threads or processor cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Multiplicity {
    /// Exactly `n` parallel servers (`n >= 1`).
    Finite(u32),
    /// A delay station: every customer is served immediately.
    Infinite,
}

impl Multiplicity {
    /// The finite count, if any.
    pub fn finite(self) -> Option<u32> {
        match self {
            Multiplicity::Finite(n) => Some(n),
            Multiplicity::Infinite => None,
        }
    }
}

impl fmt::Display for Multiplicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Multiplicity::Finite(n) => write!(f, "{n}"),
            Multiplicity::Infinite => write!(f, "inf"),
        }
    }
}

/// A hardware resource hosting tasks; an FCFS (or delay) queueing station.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Processor {
    /// Human-readable name (unique per model by convention, not enforced).
    pub name: String,
    /// Number of cores.
    pub multiplicity: Multiplicity,
}

/// What drives a task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// A user population: `multiplicity` customers cycling through
    /// `think_time` and the task's (single) entry forever.
    Reference {
        /// Mean think time between successive cycles, in seconds.
        think_time: f64,
    },
    /// A server task that accepts requests on its entries.
    Server,
}

/// An operating-system process with service handlers (entries).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Task {
    /// Human-readable name.
    pub name: String,
    /// Host processor.
    pub processor: ProcessorId,
    /// Thread count (reference tasks: population size).
    pub multiplicity: Multiplicity,
    /// Reference (user population) or server.
    pub kind: TaskKind,
}

impl Task {
    /// Is this a reference (user population) task?
    pub fn is_reference(&self) -> bool {
        matches!(self.kind, TaskKind::Reference { .. })
    }
}

/// Which phase of its entry a call is issued from.
///
/// Phase 1 runs before the reply (the caller waits for it); phase 2 runs
/// *after* the reply, overlapping with the caller — the classic LQN
/// "second phase" optimisation (e.g. logging or write-back after
/// answering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Before the reply; the caller blocks on it.
    One,
    /// After the reply; hidden from the caller but still occupying the
    /// serving thread and processor.
    Two,
}

/// A synchronous (blocking RPC) call made by an entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Call {
    /// Called entry.
    pub target: EntryId,
    /// Mean number of calls per invocation of the calling entry.
    pub mean_calls: f64,
    /// Phase the call is issued from.
    pub phase: Phase,
}

/// A service handler embedded in a task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Entry {
    /// Human-readable name.
    pub name: String,
    /// Owning task.
    pub task: TaskId,
    /// Mean phase-1 execution demand on the task's processor per
    /// invocation, in seconds (before the reply).
    pub host_demand: f64,
    /// Mean phase-2 execution demand (after the reply; 0 = no second
    /// phase).
    pub second_phase_demand: f64,
    /// Synchronous calls made per invocation (both phases).
    pub calls: Vec<Call>,
}

/// Validation failure for an [`LqnModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The request graph between tasks has a cycle (the paper restricts the
    /// analysis to acyclic request structures, which may deadlock
    /// otherwise).
    CyclicCalls {
        /// A task on the cycle.
        task: TaskId,
    },
    /// A reference task has no entry, or an entry of a reference task is
    /// the target of a call.
    ReferenceCalled {
        /// The offending entry.
        entry: EntryId,
    },
    /// A reference task must have exactly one entry.
    ReferenceEntryCount {
        /// The offending task.
        task: TaskId,
        /// How many entries it has.
        count: usize,
    },
    /// Negative host demand, call count, or think time.
    NegativeValue {
        /// Description of the offending quantity.
        what: String,
    },
    /// A finite multiplicity of zero.
    ZeroMultiplicity {
        /// Description of the offending element.
        what: String,
    },
    /// A server task is unreachable from every reference task; it would see
    /// no load and its presence is almost certainly a modelling mistake.
    UnreachableTask {
        /// The unreachable task.
        task: TaskId,
    },
    /// The model has no reference task, so no load is generated.
    NoReferenceTask,
    /// A call references an entry of the calling entry's own task.
    SelfCall {
        /// The calling entry.
        entry: EntryId,
    },
    /// A reference task's entry declared a second phase; users never
    /// reply to anyone, so a second phase is meaningless there.
    ReferencePhase2 {
        /// The offending entry.
        entry: EntryId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::CyclicCalls { task } => {
                write!(f, "request cycle through task {task}")
            }
            ModelError::ReferenceCalled { entry } => {
                write!(
                    f,
                    "entry {entry} of a reference task is the target of a call"
                )
            }
            ModelError::ReferenceEntryCount { task, count } => {
                write!(
                    f,
                    "reference task {task} has {count} entries, expected exactly 1"
                )
            }
            ModelError::NegativeValue { what } => write!(f, "negative value: {what}"),
            ModelError::ZeroMultiplicity { what } => write!(f, "zero multiplicity: {what}"),
            ModelError::UnreachableTask { task } => {
                write!(
                    f,
                    "server task {task} is not reachable from any reference task"
                )
            }
            ModelError::NoReferenceTask => write!(f, "model has no reference task"),
            ModelError::SelfCall { entry } => {
                write!(f, "entry {entry} calls an entry of its own task")
            }
            ModelError::ReferencePhase2 { entry } => {
                write!(f, "reference entry {entry} cannot have a second phase")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// The name-free structure of an [`LqnModel`] (see
/// [`LqnModel::structure_key`]): processor multiplicities; each task's
/// processor, multiplicity and kind with its think time; each entry's
/// task, phase-1 and phase-2 demands and calls (target, mean calls,
/// phase); floats by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructureKey(Vec<u64>);

/// A layered queueing network model.
///
/// See the [crate-level documentation](crate) for the modelling concepts
/// and a complete example.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LqnModel {
    processors: Vec<Processor>,
    tasks: Vec<Task>,
    entries: Vec<Entry>,
}

impl LqnModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a processor.
    pub fn add_processor(
        &mut self,
        name: impl Into<String>,
        multiplicity: Multiplicity,
    ) -> ProcessorId {
        let id = ProcessorId(self.processors.len() as u32);
        self.processors.push(Processor {
            name: name.into(),
            multiplicity,
        });
        id
    }

    /// Adds a server task on `processor` with the given thread count.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        processor: ProcessorId,
        multiplicity: Multiplicity,
    ) -> TaskId {
        assert!(
            processor.index() < self.processors.len(),
            "processor out of bounds"
        );
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            name: name.into(),
            processor,
            multiplicity,
            kind: TaskKind::Server,
        });
        id
    }

    /// Adds a reference task: a population of `population` users on
    /// `processor`, each thinking for `think_time` seconds between cycles.
    ///
    /// Give the task exactly one entry; its host demand models the user's
    /// local processing per cycle.
    pub fn add_reference_task(
        &mut self,
        name: impl Into<String>,
        processor: ProcessorId,
        population: u32,
        think_time: f64,
    ) -> TaskId {
        assert!(
            processor.index() < self.processors.len(),
            "processor out of bounds"
        );
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            name: name.into(),
            processor,
            multiplicity: Multiplicity::Finite(population),
            kind: TaskKind::Reference { think_time },
        });
        id
    }

    /// Adds an entry to `task` with the given mean host demand (seconds).
    pub fn add_entry(
        &mut self,
        name: impl Into<String>,
        task: TaskId,
        host_demand: f64,
    ) -> EntryId {
        assert!(task.index() < self.tasks.len(), "task out of bounds");
        let id = EntryId(self.entries.len() as u32);
        self.entries.push(Entry {
            name: name.into(),
            task,
            host_demand,
            second_phase_demand: 0.0,
            calls: Vec::new(),
        });
        id
    }

    /// Sets the mean second-phase demand of `entry` (work done after the
    /// reply has been sent; see [`Phase`]).
    pub fn set_second_phase_demand(&mut self, entry: EntryId, demand: f64) {
        assert!(entry.index() < self.entries.len(), "entry out of bounds");
        self.entries[entry.index()].second_phase_demand = demand;
    }

    /// Adds a synchronous phase-1 call: each invocation of `from` makes
    /// `mean_calls` blocking requests to `to` on average, before replying.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SelfCall`] if `to` belongs to the same task as
    /// `from` (requests within a task would deadlock under blocking RPC).
    pub fn add_call(
        &mut self,
        from: EntryId,
        to: EntryId,
        mean_calls: f64,
    ) -> Result<(), ModelError> {
        self.add_call_in_phase(from, to, mean_calls, Phase::One)
    }

    /// Adds a synchronous call in the given [`Phase`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::SelfCall`] if `to` belongs to the same task
    /// as `from`.
    pub fn add_call_in_phase(
        &mut self,
        from: EntryId,
        to: EntryId,
        mean_calls: f64,
        phase: Phase,
    ) -> Result<(), ModelError> {
        assert!(
            from.index() < self.entries.len(),
            "calling entry out of bounds"
        );
        assert!(
            to.index() < self.entries.len(),
            "called entry out of bounds"
        );
        if self.entries[from.index()].task == self.entries[to.index()].task {
            return Err(ModelError::SelfCall { entry: from });
        }
        self.entries[from.index()].calls.push(Call {
            target: to,
            mean_calls,
            phase,
        });
        Ok(())
    }

    /// Number of processors.
    pub fn processor_count(&self) -> usize {
        self.processors.len()
    }
    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }
    /// Number of entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The processor with the given id.
    pub fn processor(&self, id: ProcessorId) -> &Processor {
        &self.processors[id.index()]
    }
    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }
    /// The entry with the given id.
    pub fn entry(&self, id: EntryId) -> &Entry {
        &self.entries[id.index()]
    }

    /// All processor ids.
    pub fn processor_ids(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        (0..self.processors.len() as u32).map(ProcessorId)
    }
    /// All task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }
    /// All entry ids.
    pub fn entry_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        (0..self.entries.len() as u32).map(EntryId)
    }

    /// Ids of the entries belonging to `task`, in insertion order.
    pub fn entries_of(&self, task: TaskId) -> impl Iterator<Item = EntryId> + '_ {
        self.entry_ids()
            .filter(move |&e| self.entries[e.index()].task == task)
    }

    /// Ids of the reference tasks, in insertion order.
    pub fn reference_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids()
            .filter(|&t| self.tasks[t.index()].is_reference())
    }

    /// Finds a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.task_ids()
            .find(|&t| self.tasks[t.index()].name == name)
    }

    /// Finds an entry by name.
    pub fn entry_by_name(&self, name: &str) -> Option<EntryId> {
        self.entry_ids()
            .find(|&e| self.entries[e.index()].name == name)
    }

    /// The depth (layer) of each task: reference tasks are at layer 0;
    /// every other task sits one below its deepest caller.
    ///
    /// Returns `None` if the task call graph has a cycle.
    pub fn task_layers(&self) -> Option<Vec<u32>> {
        // Longest-path layering over the task call DAG.
        let n = self.tasks.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n]; // caller -> callee
        for e in &self.entries {
            for c in &e.calls {
                let from = e.task.index();
                let to = self.entries[c.target.index()].task.index();
                if from != to {
                    adj[from].push(to);
                }
            }
        }
        // Kahn with longest-path relaxation.
        let mut indeg = vec![0usize; n];
        for ts in adj.iter() {
            for &t in ts {
                indeg[t] += 1;
            }
        }
        let mut layer = vec![0u32; n];
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &t in &adj[i] {
                if layer[t] < layer[i] + 1 {
                    layer[t] = layer[i] + 1;
                }
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        if seen == n {
            Some(layer)
        } else {
            None
        }
    }

    /// Checks all structural invariants the solver relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; see [`ModelError`].
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.reference_tasks().next().is_none() {
            return Err(ModelError::NoReferenceTask);
        }
        for t in self.task_ids() {
            let task = self.task(t);
            if task.multiplicity == Multiplicity::Finite(0) {
                return Err(ModelError::ZeroMultiplicity {
                    what: format!("task {}", task.name),
                });
            }
            if let TaskKind::Reference { think_time } = task.kind {
                if think_time < 0.0 {
                    return Err(ModelError::NegativeValue {
                        what: format!("think time of {}", task.name),
                    });
                }
                let count = self.entries_of(t).count();
                if count != 1 {
                    return Err(ModelError::ReferenceEntryCount { task: t, count });
                }
            }
        }
        for p in self.processor_ids() {
            if self.processor(p).multiplicity == Multiplicity::Finite(0) {
                return Err(ModelError::ZeroMultiplicity {
                    what: format!("processor {}", self.processor(p).name),
                });
            }
        }
        for e in self.entry_ids() {
            let entry = self.entry(e);
            if entry.host_demand < 0.0 || entry.second_phase_demand < 0.0 {
                return Err(ModelError::NegativeValue {
                    what: format!("host demand of {}", entry.name),
                });
            }
            if self.task(entry.task).is_reference()
                && (entry.second_phase_demand > 0.0
                    || entry.calls.iter().any(|c| c.phase == Phase::Two))
            {
                return Err(ModelError::ReferencePhase2 { entry: e });
            }
            for c in &entry.calls {
                if c.mean_calls < 0.0 {
                    return Err(ModelError::NegativeValue {
                        what: format!("call count {} -> {}", entry.name, c.target),
                    });
                }
                if self.task(self.entry(c.target).task).is_reference() {
                    return Err(ModelError::ReferenceCalled { entry: c.target });
                }
            }
        }
        let layers = match self.task_layers() {
            Some(l) => l,
            None => {
                // Find some task on a cycle for the error message: any task
                // whose layer could not be settled.  Recompute via simple
                // DFS colouring.
                let t = self.first_task_on_cycle();
                return Err(ModelError::CyclicCalls { task: t });
            }
        };
        // Reachability: a server task must be called by someone.
        for t in self.task_ids() {
            if !self.task(t).is_reference() {
                let called = self.entry_ids().any(|e| {
                    self.entry(e)
                        .calls
                        .iter()
                        .any(|c| self.entry(c.target).task == t)
                });
                if !called {
                    return Err(ModelError::UnreachableTask { task: t });
                }
            }
        }
        let _ = layers;
        Ok(())
    }

    /// The model's [`StructureKey`]: everything the solver reads, which
    /// is everything but the names.  Two models with equal keys
    /// therefore solve to bit-identical [`Solution`](crate::Solution)s,
    /// so a caller solving many models can solve each key once.
    pub fn structure_key(&self) -> StructureKey {
        // Every struct is destructured exhaustively: a field added later
        // fails to compile here until the key covers it (or names it as
        // unread by the solver, as the names are).
        let LqnModel {
            processors,
            tasks,
            entries,
        } = self;
        let multiplicity = |m: Multiplicity| match m {
            Multiplicity::Finite(n) => u64::from(n),
            Multiplicity::Infinite => u64::MAX,
        };
        let mut key = vec![processors.len() as u64];
        for Processor {
            name: _,
            multiplicity: m,
        } in processors
        {
            key.push(multiplicity(*m));
        }
        key.push(tasks.len() as u64);
        for Task {
            name: _,
            processor,
            multiplicity: m,
            kind,
        } in tasks
        {
            key.extend([u64::from(processor.0), multiplicity(*m)]);
            match *kind {
                TaskKind::Reference { think_time } => key.extend([0, think_time.to_bits()]),
                TaskKind::Server => key.push(1),
            }
        }
        key.push(entries.len() as u64);
        for Entry {
            name: _,
            task,
            host_demand,
            second_phase_demand,
            calls,
        } in entries
        {
            key.extend([
                u64::from(task.0),
                host_demand.to_bits(),
                second_phase_demand.to_bits(),
                calls.len() as u64,
            ]);
            for &Call {
                target,
                mean_calls,
                phase,
            } in calls
            {
                let phase = match phase {
                    Phase::One => 1,
                    Phase::Two => 2,
                };
                key.extend([u64::from(target.0), mean_calls.to_bits(), phase]);
            }
        }
        StructureKey(key)
    }

    fn first_task_on_cycle(&self) -> TaskId {
        // A task with nonzero in-degree remaining after Kahn is on or
        // downstream of a cycle; report the smallest id among those not
        // assignable — adequate for diagnostics.
        let n = self.tasks.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.entries {
            for c in &e.calls {
                adj[e.task.index()].push(self.entries[c.target.index()].task.index());
            }
        }
        let mut indeg = vec![0usize; n];
        for ts in &adj {
            for &t in ts {
                indeg[t] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut removed = vec![false; n];
        while let Some(i) = queue.pop() {
            removed[i] = true;
            for &t in &adj[i] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        TaskId((0..n).find(|&i| !removed[i]).unwrap_or(0) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer() -> (LqnModel, TaskId, EntryId, EntryId) {
        let mut m = LqnModel::new();
        let pc = m.add_processor("pc", Multiplicity::Infinite);
        let ps = m.add_processor("ps", Multiplicity::Finite(1));
        let users = m.add_reference_task("users", pc, 5, 1.0);
        let server = m.add_task("server", ps, Multiplicity::Finite(1));
        let cycle = m.add_entry("cycle", users, 0.1);
        let work = m.add_entry("work", server, 0.2);
        m.add_call(cycle, work, 1.0).unwrap();
        (m, users, cycle, work)
    }

    #[test]
    fn valid_model_passes() {
        let (m, _, _, _) = two_layer();
        m.validate().unwrap();
    }

    #[test]
    fn layers_computed() {
        let (m, users, _, _) = two_layer();
        let layers = m.task_layers().unwrap();
        assert_eq!(layers[users.index()], 0);
        assert_eq!(layers[1], 1);
    }

    #[test]
    fn no_reference_task_rejected() {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", Multiplicity::Finite(1));
        let t = m.add_task("t", p, Multiplicity::Finite(1));
        m.add_entry("e", t, 0.1);
        assert_eq!(m.validate(), Err(ModelError::NoReferenceTask));
    }

    #[test]
    fn self_call_rejected() {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", Multiplicity::Finite(1));
        let t = m.add_reference_task("u", p, 1, 0.0);
        let e1 = m.add_entry("e1", t, 0.1);
        assert_eq!(
            m.add_call(e1, e1, 1.0),
            Err(ModelError::SelfCall { entry: e1 })
        );
    }

    #[test]
    fn call_to_reference_rejected() {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", Multiplicity::Finite(1));
        let u = m.add_reference_task("u", p, 1, 0.0);
        let s = m.add_task("s", p, Multiplicity::Finite(1));
        let eu = m.add_entry("eu", u, 0.1);
        let es = m.add_entry("es", s, 0.1);
        m.add_call(es, eu, 1.0).unwrap(); // structurally addable...
        m.add_call(eu, es, 1.0).unwrap();
        assert!(matches!(
            m.validate(),
            Err(ModelError::CyclicCalls { .. }) | Err(ModelError::ReferenceCalled { .. })
        ));
    }

    #[test]
    fn cyclic_calls_rejected() {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", Multiplicity::Finite(1));
        let u = m.add_reference_task("u", p, 1, 0.0);
        let a = m.add_task("a", p, Multiplicity::Finite(1));
        let b = m.add_task("b", p, Multiplicity::Finite(1));
        let eu = m.add_entry("eu", u, 0.0);
        let ea = m.add_entry("ea", a, 0.1);
        let eb = m.add_entry("eb", b, 0.1);
        m.add_call(eu, ea, 1.0).unwrap();
        m.add_call(ea, eb, 1.0).unwrap();
        m.add_call(eb, ea, 1.0).unwrap();
        assert!(matches!(m.validate(), Err(ModelError::CyclicCalls { .. })));
        assert_eq!(m.task_layers(), None);
    }

    #[test]
    fn unreachable_server_rejected() {
        let (mut m, _, _, _) = two_layer();
        let p = m.add_processor("px", Multiplicity::Finite(1));
        let orphan = m.add_task("orphan", p, Multiplicity::Finite(1));
        m.add_entry("oe", orphan, 0.1);
        assert_eq!(
            m.validate(),
            Err(ModelError::UnreachableTask { task: orphan })
        );
    }

    #[test]
    fn reference_task_needs_exactly_one_entry() {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", Multiplicity::Finite(1));
        let u = m.add_reference_task("u", p, 1, 0.0);
        assert_eq!(
            m.validate(),
            Err(ModelError::ReferenceEntryCount { task: u, count: 0 })
        );
    }

    #[test]
    fn negative_demand_rejected() {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", Multiplicity::Finite(1));
        let u = m.add_reference_task("u", p, 1, 0.0);
        m.add_entry("e", u, -1.0);
        assert!(matches!(
            m.validate(),
            Err(ModelError::NegativeValue { .. })
        ));
    }

    #[test]
    fn zero_multiplicity_rejected() {
        let mut m = LqnModel::new();
        let p = m.add_processor("p", Multiplicity::Finite(0));
        let u = m.add_reference_task("u", p, 1, 0.0);
        m.add_entry("e", u, 1.0);
        assert!(matches!(
            m.validate(),
            Err(ModelError::ZeroMultiplicity { .. })
        ));
    }

    #[test]
    fn lookups_by_name() {
        let (m, users, cycle, _) = two_layer();
        assert_eq!(m.task_by_name("users"), Some(users));
        assert_eq!(m.entry_by_name("cycle"), Some(cycle));
        assert_eq!(m.task_by_name("nope"), None);
    }

    #[test]
    fn entries_of_task() {
        let (m, users, cycle, _) = two_layer();
        let es: Vec<_> = m.entries_of(users).collect();
        assert_eq!(es, vec![cycle]);
    }

    /// A model touching every field the key covers: an infinite
    /// processor, a reference task with think time, multi-threaded
    /// servers, a second phase and a phase-2 call.
    fn rich(names: [&str; 9]) -> LqnModel {
        let mut m = LqnModel::new();
        let pc = m.add_processor(names[0], Multiplicity::Infinite);
        let ps = m.add_processor(names[1], Multiplicity::Finite(2));
        let users = m.add_reference_task(names[2], pc, 7, 1.5);
        let app = m.add_task(names[3], ps, Multiplicity::Finite(3));
        let db = m.add_task(names[4], ps, Multiplicity::Finite(1));
        let cycle = m.add_entry(names[5], users, 0.05);
        let serve = m.add_entry(names[6], app, 0.2);
        let read = m.add_entry(names[7], db, 0.1);
        let log = m.add_entry(names[8], db, 0.03);
        m.set_second_phase_demand(serve, 0.07);
        m.add_call(cycle, serve, 1.0).unwrap();
        m.add_call(serve, read, 2.5).unwrap();
        m.add_call_in_phase(serve, log, 1.0, Phase::Two).unwrap();
        m
    }

    const NAMES: [&str; 9] = [
        "pc", "ps", "users", "app", "db", "cycle", "serve", "read", "log",
    ];

    #[test]
    fn renaming_keeps_the_structure_key_and_the_solution() {
        let m = rich(NAMES);
        let renamed = rich(["a", "b", "c", "d", "e", "f", "g", "h", "i"]);
        assert_eq!(m.structure_key(), renamed.structure_key());
        let (a, b) = (crate::solve(&m).unwrap(), crate::solve(&renamed).unwrap());
        assert_eq!(a, b, "the solver never reads a name");
    }

    #[test]
    fn every_numeric_field_changes_the_structure_key() {
        let base = rich(NAMES);
        let mutations: [fn(&mut LqnModel); 13] = [
            |m| m.processors[1].multiplicity = Multiplicity::Finite(3),
            |m| m.processors[0].multiplicity = Multiplicity::Finite(1),
            |m| m.tasks[1].processor = ProcessorId(0),
            |m| m.tasks[1].multiplicity = Multiplicity::Infinite,
            |m| m.tasks[0].kind = TaskKind::Reference { think_time: 1.25 },
            |m| m.tasks[2].kind = TaskKind::Reference { think_time: 0.0 },
            |m| m.entries[3].task = TaskId(1),
            |m| m.entries[1].host_demand = 0.25,
            |m| m.entries[1].second_phase_demand = 0.0,
            |m| m.entries[1].calls[0].target = EntryId(3),
            |m| m.entries[1].calls[0].mean_calls = 2.0,
            |m| m.entries[1].calls[1].phase = Phase::One,
            |m| m.entries[0].calls.clear(),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut m = base.clone();
            mutate(&mut m);
            assert_ne!(m.structure_key(), base.structure_key(), "mutation #{i}");
        }
        // Floats are compared by bit pattern: a signed zero is a change.
        let mut m = base.clone();
        m.entries[1].second_phase_demand = -0.0;
        let mut zero = base.clone();
        zero.entries[1].second_phase_demand = 0.0;
        assert_ne!(m.structure_key(), zero.structure_key());
    }

    #[test]
    fn display_of_errors() {
        let err = ModelError::NoReferenceTask;
        assert!(format!("{err}").contains("no reference task"));
    }
}
