//! Shuffle service subsystem: reduce-side fetching of map outputs.
//!
//! Handles `ShuffleTick`, plus the fetch-completion and fetch-timeout
//! paths that the `NetPoll` / `FlowStallTimeout` drivers route here.
//! A shuffling reduce keeps up to [`MAX_PARALLEL_FETCHES`] batched
//! connections in flight, each bundling up to [`MAX_FETCH_BATCH`] map
//! outputs from one source node (Hadoop fetches several map outputs per
//! host connection). Unreachable map outputs are reported to the
//! JobTracker as fetch failures — the signal behind Hadoop's
//! 50 %-of-reduces rule and MOON's query-the-DFS rule for map
//! re-execution (§VI-B).

use super::attempts::Phase;
use super::{Ev, FlowPurpose, World, FETCH_RETRY_DELAY};
use dfs::NodeId;
use mapred::{AttemptId, TaskId, TaskKind};
use netsim::FlowId;
use simkit::{Ctx, StreamId};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum map outputs bundled into one shuffle connection (Hadoop
/// fetches several map outputs per host connection).
const MAX_FETCH_BATCH: usize = 20;
/// Concurrent shuffle connections per reduce attempt.
const MAX_PARALLEL_FETCHES: usize = 2;

/// Progress of one reduce attempt's shuffle phase.
#[derive(Debug)]
pub(super) struct ShuffleState {
    /// Maps not yet fetched and not in flight (fetch when available).
    pub(super) waiting: BTreeSet<u32>,
    /// In-flight batches: flow → map indexes. The one record of a
    /// batch; its flow's purpose names only the attempt.
    pub(super) inflight: BTreeMap<FlowId, Vec<u32>>,
    /// Successfully fetched map indexes.
    pub(super) fetched: BTreeSet<u32>,
}

/// Split a completed fetch batch into (still-valid, invalidated) map
/// indexes. Order within each side is preserved.
fn partition_fetched(maps: &[u32], still_valid: impl Fn(u32) -> bool) -> (Vec<u32>, Vec<u32>) {
    maps.iter().partition(|&&m| still_valid(m))
}

impl World {
    /// Start as many fetch batches as the parallelism budget allows.
    pub(super) fn pump_shuffle(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        loop {
            let Some(rt) = self.attempts.get(&id) else {
                return;
            };
            let Phase::Shuffle(sh) = &rt.phase else {
                return;
            };
            if sh.inflight.len() >= MAX_PARALLEL_FETCHES {
                return;
            }
            let node = self.jt.attempt(id).node;
            // Find the first waiting map whose output is ready.
            let slot = self.slot_for(id);
            let mut batch: Vec<u32> = Vec::new();
            let mut source: Option<NodeId> = None;
            for &m in &sh.waiting {
                let Some(block) = slot.map_outputs[m as usize] else {
                    continue;
                };
                match source {
                    None => {
                        let src = self.nn.choose_read_source(
                            block,
                            Some(node),
                            ctx.rng().stream(StreamId::Placement),
                        );
                        if let Some(s) = src {
                            source = Some(s);
                            batch.push(m);
                        }
                    }
                    Some(s) => {
                        if batch.len() >= MAX_FETCH_BATCH {
                            break;
                        }
                        if self.nn.is_replica_active(block, s) {
                            batch.push(m);
                        }
                    }
                }
            }
            let Some(src) = source else { return };
            let n_reduces = self.jt.job_spec(id.task.job).n_reduces;
            let bytes: f64 =
                batch.len() as f64 * slot.workload.shuffle_bytes_per_pair(n_reduces) as f64;
            let path = self.transfer_path(src, node);
            let flow = self.open_flow(ctx, &path, bytes.max(1.0), FlowPurpose::Fetch(id));
            self.obs_fetch_started(flow, ctx.now());
            if let Some(rt) = self.attempts.get_mut(&id) {
                if let Phase::Shuffle(sh) = &mut rt.phase {
                    for m in &batch {
                        sh.waiting.remove(m);
                    }
                    sh.inflight.insert(flow, batch);
                }
            }
        }
    }

    /// Take a fetch flow's batch out of its shuffling attempt's
    /// in-flight set.
    fn take_batch(&mut self, id: AttemptId, flow: FlowId) -> Vec<u32> {
        match self.attempts.get_mut(&id).map(|rt| &mut rt.phase) {
            Some(Phase::Shuffle(sh)) => sh.inflight.remove(&flow),
            _ => None,
        }
        .expect("a fetch flow is in flight for its shuffling attempt")
    }

    /// A fetch batch completed. Outputs invalidated *while the batch
    /// was in flight* (a fetch-failure quorum decided to re-execute the
    /// map — possibly reported by a different reduce, or the map's
    /// attempt was killed or preempted) carry stale data: those maps go
    /// back to `waiting` to be re-fetched from the re-executed output
    /// instead of being silently counted as fetched.
    pub(super) fn on_fetch_done(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId, flow: FlowId) {
        let maps = self.take_batch(id, flow);
        let n_maps = self.slot_for(id).workload.n_maps;
        self.obs_fetch_end(flow, id, maps.len(), ctx.now(), true);
        let slot = self.slot_for(id);
        let (good, stale) = partition_fetched(&maps, |m| slot.map_outputs[m as usize].is_some());
        let mut shuffle_complete = false;
        if let Some(rt) = self.attempts.get_mut(&id) {
            if let Phase::Shuffle(sh) = &mut rt.phase {
                sh.fetched.extend(good.iter().copied());
                sh.waiting.extend(stale.iter().copied());
                shuffle_complete = sh.fetched.len() as u32 == n_maps;
            }
            if shuffle_complete {
                rt.shuffle_done = Some(ctx.now());
            }
        }
        if shuffle_complete {
            self.begin_compute(ctx, id);
        } else {
            self.pump_shuffle(ctx, id);
        }
    }

    /// A stalled fetch batch timed out (its flow is closed already):
    /// report fetch failures and retry.
    pub(super) fn on_fetch_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId, flow: FlowId) {
        let maps = self.take_batch(id, flow);
        self.obs_fetch_end(flow, id, maps.len(), ctx.now(), false);
        let job = id.task.job;
        let reduce_task = id.task;
        for &m in &maps {
            let map_task = TaskId {
                job,
                kind: TaskKind::Map,
                index: m,
            };
            let output_active = self.slot_for(id).map_outputs[m as usize]
                .map(|b| self.nn.is_block_available(b))
                .unwrap_or(false);
            let reexec =
                self.jt
                    .report_fetch_failure(ctx.now(), map_task, reduce_task, output_active);
            if reexec {
                self.slot_for_mut(id).map_outputs[m as usize] = None;
            }
            self.metrics.fetch_failures += 1;
        }
        // Back to waiting; the shuffle tick retries them.
        if let Some(rt) = self.attempts.get_mut(&id) {
            if let Phase::Shuffle(sh) = &mut rt.phase {
                sh.waiting.extend(maps);
            }
        }
    }

    pub(super) fn on_shuffle_tick(&mut self, ctx: &mut Ctx<'_, Ev>, id: AttemptId) {
        let Some(rt) = self.attempts.get(&id) else {
            return;
        };
        let Phase::Shuffle(sh) = &rt.phase else {
            return;
        };
        // Report completed-but-unreachable map outputs as fetch failures:
        // a real reducer's connection attempt is refused immediately, and
        // these reports are what drive Hadoop's 50%-of-reduces rule and
        // MOON's query-the-DFS rule for map re-execution (§VI-B).
        let slot = self.slot_for(id);
        let unreachable: Vec<u32> = sh
            .waiting
            .iter()
            .copied()
            .filter(|&m| {
                slot.map_outputs[m as usize].is_some_and(|b| !self.nn.is_block_available(b))
            })
            .collect();
        let job = id.task.job;
        let reduce_task = id.task;
        for m in unreachable {
            let map_task = TaskId {
                job,
                kind: TaskKind::Map,
                index: m,
            };
            let reexec = self
                .jt
                .report_fetch_failure(ctx.now(), map_task, reduce_task, false);
            if reexec {
                self.slot_for_mut(id).map_outputs[m as usize] = None;
            }
            self.metrics.fetch_failures += 1;
        }
        // Retry whatever is fetchable now.
        self.pump_shuffle(ctx, id);
        // Keep ticking while the attempt is still shuffling.
        if let Some(rt) = self.attempts.get(&id) {
            if matches!(rt.phase, Phase::Shuffle(_)) {
                ctx.schedule(FETCH_RETRY_DELAY, Ev::ShuffleTick(id));
            }
        }
    }

    /// A completed map's output became visible: wake the owning job's
    /// shuffling reduces (other jobs' shuffles never fetch it).
    pub(super) fn notify_reduces_of_map(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        job: mapred::JobId,
        _map_index: u32,
    ) {
        let reduce_attempts: Vec<AttemptId> = self
            .attempts
            .iter()
            .filter(|(aid, rt)| {
                aid.task.job == job
                    && aid.task.kind == TaskKind::Reduce
                    && matches!(rt.phase, Phase::Shuffle(_))
            })
            .map(|(&aid, _)| aid)
            .collect();
        for id in reduce_attempts {
            self.pump_shuffle(ctx, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::partition_fetched;

    #[test]
    fn stale_maps_split_from_valid_ones() {
        // Maps 1 and 3 were invalidated while the batch was in flight.
        let valid = |m: u32| m != 1 && m != 3;
        let (good, stale) = partition_fetched(&[0, 1, 2, 3], valid);
        assert_eq!(good, vec![0, 2]);
        assert_eq!(stale, vec![1, 3]);
        let (good, stale) = partition_fetched(&[5, 6], |_| true);
        assert_eq!(good, vec![5, 6]);
        assert!(stale.is_empty());
    }
}
