//! # fmperf-lqn
//!
//! Layered queueing network (LQN) model and analytic solver.
//!
//! The DSN 2002 paper solves one ordinary LQN per reachable system
//! configuration (step 5 of its performability algorithm) using the LQNS
//! tool.  LQNS is not available as a library, so this crate implements the
//! same model class from scratch:
//!
//! * **Processors** host tasks and are FCFS queueing stations (finite or
//!   infinite multiplicity).
//! * **Tasks** are operating-system processes.  A task has a multiplicity
//!   (its thread count); *reference tasks* model user populations that cycle
//!   through think time and requests forever.
//! * **Entries** are the service handlers inside a task.  An entry has a
//!   mean host demand (execution time on the task's processor) and makes
//!   synchronous (blocking RPC) calls to other entries with given mean call
//!   counts.
//!
//! The solver ([`solve`], [`SolverOptions`]) uses a Method-of-Layers-style
//! fixed point: tasks are stratified by call depth; each layer boundary
//! becomes a closed multi-class queueing submodel in which the upper tasks
//! are customers and the lower tasks / processors are stations, solved with
//! approximate mean value analysis ([`mva`]); entry holding times (service
//! plus blocked-on-reply time) and waiting estimates are iterated to
//! convergence.  Accuracy is cross-validated against the discrete-event
//! simulator in `fmperf-sim`.
//!
//! ```
//! use fmperf_lqn::{LqnModel, Multiplicity, solve};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = LqnModel::new();
//! let pc = m.add_processor("client-cpu", Multiplicity::Infinite);
//! let ps = m.add_processor("server-cpu", Multiplicity::Finite(1));
//! let users = m.add_reference_task("users", pc, 10, 5.0);
//! let server = m.add_task("server", ps, Multiplicity::Finite(1));
//! let think = m.add_entry("cycle", users, 0.0);
//! let work = m.add_entry("work", server, 0.1);
//! m.add_call(think, work, 1.0)?;
//! let sol = solve(&m)?;
//! assert!(sol.entry_throughput(work) > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layered;
pub mod model;
pub mod mva;
pub mod solution;

pub use layered::{solve, SolveError, SolverOptions};
pub use model::{
    Call, Entry, EntryId, LqnModel, ModelError, Multiplicity, Phase, Processor, ProcessorId,
    StructureKey, Task, TaskId, TaskKind,
};
pub use solution::Solution;
