//! One job's record. Its task tables are private to this module, so
//! [`Job::task_mut`] is the only way to write a task, and it bumps the
//! job's mutation epoch: a cached picker summary keyed on that epoch
//! cannot miss a task write.

use super::fetch::FetchReports;
use super::summary::PickerSummary;
use super::JobMetrics;
use crate::job::{JobSpec, JobStatus, TaskState};
use crate::types::{JobId, TaskId, TaskKind};
use dfs::NodeId;
use simkit::SimTime;
use std::collections::BTreeMap;

#[derive(Debug)]
pub(super) struct Job {
    pub(super) spec: JobSpec,
    /// Map and reduce tasks, each indexed by `TaskId::index`.
    maps: Vec<TaskState>,
    reduces: Vec<TaskState>,
    /// Task writes so far: bumped by every [`Job::task_mut`].
    epoch: u64,
    /// The pickers' node-independent view of the map and reduce tasks,
    /// rebuilt on demand when stale (see [`PickerSummary`]).
    summaries: [PickerSummary; 2],
    pub(super) status: JobStatus,
    pub(super) submitted: SimTime,
    /// When the job's first attempt launched (queueing-delay endpoint).
    pub(super) first_launch: Option<SimTime>,
    /// The next task's `first_launch_seq` (launch order).
    pub(super) next_launch_seq: u32,
    /// map task → fetch-failure reports as (reporting reduce, time).
    /// Reports expire so that disjoint outage episodes do not accumulate
    /// into a spurious re-execution.
    pub(super) fetch_failures: BTreeMap<TaskId, FetchReports>,
    /// Live (Running or Inactive) attempts across the job's tasks,
    /// maintained incrementally at launch / kill / success / failure —
    /// the job's cluster share, ranked by fair-share ordering without
    /// an O(tasks) scan per slot grant.
    pub(super) live_attempts: u32,
    /// The job's counters, returned by [`super::JobTracker::job_metrics`].
    pub(super) metrics: JobMetrics,
}

impl Job {
    /// A running job `id` submitted at `now`, with every task fresh.
    pub(super) fn new(id: JobId, now: SimTime, spec: JobSpec) -> Self {
        let tasks = |kind, n| {
            (0..n)
                .map(|index| {
                    TaskState::new(TaskId {
                        job: id,
                        kind,
                        index,
                    })
                })
                .collect()
        };
        Job {
            maps: tasks(TaskKind::Map, spec.n_maps),
            reduces: tasks(TaskKind::Reduce, spec.n_reduces),
            epoch: 0,
            summaries: Default::default(),
            spec,
            status: JobStatus::Running,
            submitted: now,
            first_launch: None,
            next_launch_seq: 0,
            fetch_failures: BTreeMap::new(),
            live_attempts: 0,
            metrics: JobMetrics::default(),
        }
    }

    /// The job's tasks of `kind`, indexed by `TaskId::index`.
    pub(super) fn tasks(&self, kind: TaskKind) -> &[TaskState] {
        match kind {
            TaskKind::Map => &self.maps,
            TaskKind::Reduce => &self.reduces,
        }
    }

    pub(super) fn task(&self, id: TaskId) -> &TaskState {
        &self.tasks(id.kind)[id.index as usize]
    }

    /// The only writer of a task: bumps the epoch that keys the
    /// job's picker summaries.
    pub(super) fn task_mut(&mut self, id: TaskId) -> &mut TaskState {
        self.epoch += 1;
        let tasks = match id.kind {
            TaskKind::Map => &mut self.maps,
            TaskKind::Reduce => &mut self.reduces,
        };
        &mut tasks[id.index as usize]
    }

    pub(super) fn all_tasks(&self) -> impl Iterator<Item = &TaskState> {
        self.maps.iter().chain(&self.reduces)
    }

    /// Task writes so far (see [`Job::task_mut`]).
    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cached picker summary of the job's `kind` tasks.
    pub(super) fn summary(&self, kind: TaskKind) -> &PickerSummary {
        &self.summaries[kind as usize]
    }

    /// Is `task` a map whose input split has a replica on `node`?
    pub(super) fn input_local(&self, task: TaskId, node: NodeId) -> bool {
        task.kind == TaskKind::Map
            && self
                .spec
                .map_input_locations
                .get(task.index as usize)
                .is_some_and(|locs| locs.contains(&node))
    }
}
