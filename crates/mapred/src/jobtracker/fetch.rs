//! Fetch-failure windows: windowed per-map reports from reduces and the
//! policy rule that re-opens a completed map whose output is lost.

use super::JobTracker;
use crate::policy::FetchFailurePolicy;
use crate::types::{TaskId, TaskKind};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Windowed fetch-failure reports for one map task. Reports arrive in
/// nondecreasing sim-time order, so expiring the window is a prefix
/// drop, and the distinct-reporter count is maintained incrementally
/// instead of re-sorting the report list on every report.
#[derive(Debug, Default)]
pub(super) struct FetchReports {
    /// (reporting reduce, report time), time-ascending.
    reports: std::collections::VecDeque<(TaskId, SimTime)>,
    /// Reports-in-window per distinct reporting reduce.
    reporter_counts: BTreeMap<TaskId, u32>,
}

impl FetchReports {
    fn push(&mut self, reduce: TaskId, now: SimTime) {
        debug_assert!(
            self.reports.back().is_none_or(|&(_, t)| t <= now),
            "fetch-failure reports arrived out of order"
        );
        self.reports.push_back((reduce, now));
        *self.reporter_counts.entry(reduce).or_insert(0) += 1;
    }

    /// Drop reports before `cutoff` (a prefix, since times ascend).
    fn expire(&mut self, cutoff: SimTime) {
        while let Some(&(r, t)) = self.reports.front() {
            if t >= cutoff {
                break;
            }
            self.reports.pop_front();
            let c = self
                .reporter_counts
                .get_mut(&r)
                .expect("count tracks reports");
            *c -= 1;
            if *c == 0 {
                self.reporter_counts.remove(&r);
            }
        }
    }
}

impl JobTracker {
    /// Fetch-failure reports older than this no longer count toward
    /// re-execution thresholds (reducers back off and earlier outage
    /// episodes become stale evidence).
    const FETCH_REPORT_WINDOW: SimDuration = SimDuration::from_secs(120);

    /// A reduce reported that it cannot fetch `map`'s output.
    /// `output_active` is the DFS's answer to "does any active replica of
    /// the output exist?" (only consulted by the MOON policy). Returns
    /// true if the map task was re-opened for execution.
    pub fn report_fetch_failure(
        &mut self,
        now: SimTime,
        map: TaskId,
        reduce: TaskId,
        output_active: bool,
    ) -> bool {
        debug_assert_eq!(map.kind, TaskKind::Map);
        let fetch_policy = self.fetch_policy;
        let job = self.job_mut(map.job);
        if !job.task(map).completed {
            return false; // already being re-executed
        }
        let cutoff = now
            .since(SimTime::ZERO)
            .saturating_sub(Self::FETCH_REPORT_WINDOW);
        let cutoff = SimTime::ZERO + cutoff;
        let (reporters, in_window) = {
            let reports = job.fetch_failures.entry(map).or_default();
            reports.push(reduce, now);
            reports.expire(cutoff);
            (reports.reporter_counts.len(), reports.reports.len())
        };
        let reexec = match fetch_policy {
            FetchFailurePolicy::HadoopMajority => {
                // "More than 50% of the running Reduce tasks report
                // fetching failures for the Map task" — distinct reduces.
                let running_reduces = job
                    .tasks(TaskKind::Reduce)
                    .iter()
                    .filter(|t| !t.completed && t.n_live() > 0)
                    .count();
                reporters * 2 > running_reduces.max(1)
            }
            FetchFailurePolicy::MoonQuery => {
                // "Once it observes three fetch failures from this task,
                // it immediately reissues a new copy" — cumulative
                // failures, so even a single starving reduce escalates.
                in_window >= 3 && !output_active
            }
        };
        if !reexec {
            return false;
        }
        // Re-open the map task.
        let task = job.task_mut(map);
        task.completed = false;
        task.output_lost_count += 1;
        job.metrics.completed_maps -= 1;
        job.fetch_failures.remove(&map);
        job.metrics.map_output_relaunches += 1;
        job.metrics.killed_maps += 1; // the completed attempt is invalidated
        true
    }
}
