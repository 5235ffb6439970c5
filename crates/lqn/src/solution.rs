//! Solved performance measures of an LQN.

use crate::model::{EntryId, LqnModel, Multiplicity, ProcessorId, TaskId};

/// The performance measures produced by [`crate::solve`].
///
/// All vectors are indexed by the raw index of the corresponding id; use
/// the accessor methods instead of poking at fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub(crate) entry_throughput: Vec<f64>,
    pub(crate) entry_reply: Vec<f64>,
    pub(crate) entry_holding: Vec<f64>,
    pub(crate) task_throughput: Vec<f64>,
    pub(crate) task_busy: Vec<f64>,
    pub(crate) proc_utilization: Vec<f64>,
    pub(crate) chain_response: Vec<Option<f64>>,
    pub(crate) sweeps: u32,
}

impl Solution {
    /// Invocations per second of `entry`.
    pub fn entry_throughput(&self, entry: EntryId) -> f64 {
        self.entry_throughput[entry.index()]
    }

    /// Mean holding time of `entry`: host execution plus processor
    /// queueing plus time blocked on nested synchronous calls, per
    /// invocation — both phases (how long the serving thread is busy).
    pub fn entry_holding_time(&self, entry: EntryId) -> f64 {
        self.entry_holding[entry.index()]
    }

    /// Mean phase-1 (reply) time of `entry`: what a caller waits per
    /// request.  Equal to [`entry_holding_time`](Self::entry_holding_time)
    /// for entries without a second phase.
    pub fn entry_reply_time(&self, entry: EntryId) -> f64 {
        self.entry_reply[entry.index()]
    }

    /// Invocations per second of `task` (sum over its entries; for a
    /// reference task, the user-cycle completion rate).
    pub fn task_throughput(&self, task: TaskId) -> f64 {
        self.task_throughput[task.index()]
    }

    /// Utilisation of `task` in busy servers (between 0 and the task
    /// multiplicity): throughput × mean holding time.
    pub fn task_utilization(&self, task: TaskId) -> f64 {
        self.task_busy[task.index()]
    }

    /// Utilisation of `task` as a fraction of its multiplicity (0..=1);
    /// `None` for infinite-multiplicity tasks.
    pub fn task_saturation(&self, model: &LqnModel, task: TaskId) -> Option<f64> {
        match model.task(task).multiplicity {
            Multiplicity::Finite(m) => Some(self.task_busy[task.index()] / f64::from(m)),
            Multiplicity::Infinite => None,
        }
    }

    /// Utilisation of `proc` in busy cores.
    pub fn processor_utilization(&self, proc: ProcessorId) -> f64 {
        self.proc_utilization[proc.index()]
    }

    /// Response time of the reference task `chain` (mean cycle time
    /// excluding think time), or `None` if the task is not a reference
    /// task.
    pub fn chain_response(&self, chain: TaskId) -> Option<f64> {
        self.chain_response[chain.index()]
    }

    /// Number of fixed-point sweeps the layered solver used.
    pub fn sweeps(&self) -> u32 {
        self.sweeps
    }
}
