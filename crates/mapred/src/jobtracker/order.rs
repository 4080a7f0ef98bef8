//! Cross-job order and preemption: the one `(rank_key, JobId)` ranking
//! every picker walks, and the kill-and-requeue guard derived from it.

use super::{Job, JobTracker};
use crate::job::JobSpec;
use crate::policy::CrossJobPolicy;
use crate::types::{AttemptId, JobId, TaskKind};
use dfs::NodeId;
use std::collections::BTreeMap;

impl JobTracker {
    /// Drive `f` over the running jobs that `may_pick`, in cross-job
    /// policy order, ascending `(rank_key, JobId)`, stopping at the
    /// first `Some`. When no running job `may_pick`, as on almost every
    /// heartbeat of a large fleet, it returns before ranking anything.
    /// The ranking Vec is owned by the tracker and refilled per pick
    /// (clear, don't drop), so steady-state picks allocate nothing; it
    /// is taken out of the cell for the duration so `f` never observes
    /// a held borrow.
    pub(super) fn pick_across_jobs<T>(
        &self,
        may_pick: impl Fn(&Job) -> bool,
        mut f: impl FnMut(JobId, &Job) -> Option<T>,
    ) -> Option<T> {
        if !self.running_jobs.iter().any(|&jid| may_pick(self.job(jid))) {
            return None;
        }
        let tenant_live = self.tenant_live_counts();
        let mut order = self.rank_scratch.take();
        order.clear();
        order.extend(
            self.running_jobs
                .iter()
                .map(|&jid| (self.rank_key(jid, self.job(jid), &tenant_live), jid)),
        );
        order.sort_unstable();
        let found = order.iter().find_map(|&(_, jid)| {
            let job = self.job(jid);
            may_pick(job).then(|| f(jid, job)).flatten()
        });
        self.rank_scratch.replace(order);
        found
    }

    /// Live attempts per tenant over running jobs: the shares the
    /// tenant-fair ranking and preemption guard compare. Empty under
    /// every other policy, whose keys ignore tenants. O(running jobs),
    /// computed once per pick and once per preemption attempt; no
    /// maintained index to drift.
    pub(super) fn tenant_live_counts(&self) -> BTreeMap<u32, u64> {
        let mut live = BTreeMap::new();
        if self.cross_job == CrossJobPolicy::TenantFair {
            for &jid in &self.running_jobs {
                let j = self.job(jid);
                *live.entry(j.spec.tenant).or_insert(0u64) += u64::from(j.live_attempts);
            }
        }
        live
    }

    pub(super) fn tenant_weight(&self, tenant: u32) -> u64 {
        u64::from(
            self.tenant_weights
                .get(tenant as usize)
                .copied()
                .unwrap_or(1)
                .max(1),
        )
    }

    pub(super) fn tenant_min(&self, tenant: u32) -> u64 {
        u64::from(
            self.tenant_min_slots
                .get(tenant as usize)
                .copied()
                .unwrap_or(0),
        )
    }

    /// One job's rank in the single cross-job order: lower is scheduled
    /// sooner, and preemption kills the slot holder with the highest
    /// rank. Every picker sorts by `(key, JobId)`, and the preemption
    /// guard ([`Self::may_preempt`]) compares keys. `tenant_live` comes
    /// from [`Self::tenant_live_counts`].
    fn rank_key(&self, jid: JobId, job: &Job, tenant_live: &BTreeMap<u32, u64>) -> u128 {
        let t_live = tenant_live.get(&job.spec.tenant).copied().unwrap_or(0);
        self.key_at(jid, &job.spec, job.live_attempts, t_live)
    }

    /// [`Self::rank_key`] of job `jid` as if it held `live` attempts and
    /// its tenant held `t_live`.
    ///
    /// - FIFO: the JobId (submission order).
    /// - Fair share: the live-attempt count (fewest first).
    /// - Inverted fair share: `(u32::MAX − live) << 32 | (u32::MAX −
    ///   jid)`, so the most live attempts and then the latest
    ///   submission come first.
    /// - EDF: the absolute deadline in microseconds; deadline-less jobs
    ///   rank at `u128::MAX`, so an all-`None` stream degenerates to
    ///   FIFO via the JobId tie-break.
    /// - Strict priority: `i32::MAX - priority` (higher priority ⇒
    ///   smaller key), never negative.
    /// - Tenant-fair: `class · 2^120 | weighted_share · 2^40 |
    ///   job_live`: tenants below their minimum share first, then
    ///   ascending `tenant_live/weight`, then max-min within a tenant.
    fn key_at(&self, jid: JobId, spec: &JobSpec, live: u32, t_live: u64) -> u128 {
        match self.cross_job {
            CrossJobPolicy::Fifo => u128::from(jid.0),
            CrossJobPolicy::FairShare => u128::from(live),
            CrossJobPolicy::FairShareInverted => {
                (u128::from(u32::MAX - live) << 32) | u128::from(u32::MAX - jid.0)
            }
            CrossJobPolicy::Edf => spec
                .deadline
                .map_or(u128::MAX, |d| u128::from(d.as_micros())),
            CrossJobPolicy::StrictPriority => {
                (i64::from(i32::MAX) - i64::from(spec.priority)) as u128
            }
            CrossJobPolicy::TenantFair => {
                let class = u128::from(t_live >= self.tenant_min(spec.tenant));
                // < 2^52: live attempts are bounded by cluster slots.
                let share = u128::from(t_live * 1_000_000 / self.tenant_weight(spec.tenant));
                (class << 120) | (share << 40) | u128::from(live)
            }
        }
    }

    /// May a pending task of `challenger` kill a running attempt of
    /// `victim`? The guard is derived from the rank key: the challenger
    /// must rank strictly ahead, and must still rank at or ahead of the
    /// victim after one live attempt moves from victim to challenger
    /// (job and tenant counts both). The reverse kill would then need
    /// the victim strictly ahead, which the transfer has just ruled
    /// out, so kill/relaunch ping-pong cannot occur. Two policies keep
    /// a hand-written rule instead; see their arms.
    pub(super) fn may_preempt(
        &self,
        challenger: JobId,
        victim: JobId,
        tenant_live: &BTreeMap<u32, u64>,
    ) -> bool {
        let (ch, vi) = (self.job(challenger), self.job(victim));
        let (ct, vt) = (ch.spec.tenant, vi.spec.tenant);
        let cl = tenant_live.get(&ct).copied().unwrap_or(0);
        let vl = tenant_live.get(&vt).copied().unwrap_or(0);
        match self.cross_job {
            // The inverted order ranks the biggest job first, so the
            // derived rule would let it take slots from smaller jobs.
            // This fault-injection variant starves the tail by never
            // preempting at all.
            CrossJobPolicy::FairShareInverted => false,
            // Across tenants the key is not the rule: the floor is a
            // hard stop on the victim, a challenger below its own floor
            // wins whatever the shares, the share term is rounded to
            // integers, and the job-live tie term plays no part. So the
            // floor-and-rebalance rule stays as written: never push a
            // tenant below its floor, and move a slot only to a tenant
            // below its floor or when the weighted shares strictly
            // rebalance, `(ch_live+1)·w_v ≤ (v_live−1)·w_c`.
            CrossJobPolicy::TenantFair if ct != vt => {
                vl > self.tenant_min(vt)
                    && (cl < self.tenant_min(ct)
                        || (cl + 1) * self.tenant_weight(vt) <= (vl - 1) * self.tenant_weight(ct))
            }
            _ => {
                let moved = u64::from(ct != vt);
                self.key_at(challenger, &ch.spec, ch.live_attempts, cl)
                    < self.key_at(victim, &vi.spec, vi.live_attempts, vl)
                    && self.key_at(challenger, &ch.spec, ch.live_attempts + 1, cl + moved)
                        <= self.key_at(
                            victim,
                            &vi.spec,
                            vi.live_attempts.saturating_sub(1),
                            vl.saturating_sub(moved),
                        )
            }
        }
    }

    /// Kill-and-requeue one occupied `kind` slot on `node`, if some
    /// pending job deserves it more than a current occupant. The victim
    /// attempt is killed through the normal attempt-kill path (its task
    /// re-enters the pending pool via `needs_launch`) and pushed onto
    /// `kill` for the world to tear down physically. Returns whether a
    /// slot was reclaimed; the caller grants it in the same round.
    pub(super) fn try_preempt(
        &mut self,
        node: NodeId,
        kind: TaskKind,
        kill: &mut Vec<AttemptId>,
    ) -> bool {
        // Dedicated nodes under MOON-style policies run speculative
        // copies only (§V-C); reclaiming a slot there would grant it to
        // an original, which those nodes never run.
        if self.tracker(node).dedicated && !self.policy.dedicated_runs_originals() {
            return false;
        }
        // Challenger: the first job in policy order with a pending
        // launchable task of this kind — exactly the pick the freed
        // slot will serve, so a successful preemption always re-grants.
        let Some(challenger) = self.pick_across_jobs(
            |job| self.has_pending(job, kind),
            |jid, job| self.pick_pending_in(job, node, kind).map(|_| jid),
        ) else {
            return false;
        };
        // Victim: among this tracker's running attempts of `kind`, the
        // one owned by the most policy-disfavored job the challenger may
        // preempt — preferring speculative copies, then the youngest
        // attempt, so the least progress is discarded.
        let tenant_live = self.tenant_live_counts();
        let mut victim: Option<(u128, JobId, bool, AttemptId)> = None;
        let tr = self.tracker(node);
        for &aid in tr.running.iter().filter(|a| a.task.kind == kind) {
            let vjid = aid.task.job;
            if vjid == challenger || !self.may_preempt(challenger, vjid, &tenant_live) {
                continue;
            }
            let key = self.rank_key(vjid, self.job(vjid), &tenant_live);
            let speculative = self.attempt(aid).reason.is_duplicate();
            let cand = (key, vjid, speculative, aid);
            if victim.is_none_or(|v| cand > v) {
                victim = Some(cand);
            }
        }
        let Some((_, vjid, _, aid)) = victim else {
            return false;
        };
        self.release_attempt(aid);
        self.kill_attempt(aid);
        self.job_mut(vjid).metrics.preempted += 1;
        self.total_preempted += 1;
        kill.push(aid);
        true
    }
}
