//! Replication mathematics and the replication queue.
//!
//! Implements the paper's availability model (§I, §III, §IV-A):
//! with node unavailability rate `p` and independent failures, a block
//! with `v` volatile copies is available with probability `1 − p^v`; the
//! adaptive policy picks the smallest `v′` meeting a user-defined
//! availability goal. The replication queue re-creates missing replicas,
//! giving reliable files strict priority over opportunistic ones.

use crate::types::{BlockId, FileKind};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Availability of a block with `v` independent volatile replicas under
/// per-node unavailability `p` (no dedicated copies).
pub fn volatile_availability(p: f64, v: u32) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    1.0 - p.powi(v as i32)
}

/// The smallest volatile replication degree `v′` such that
/// `1 − p^v′ ≥ goal` (§IV-A). Clamped to `[1, max_v]`.
///
/// The paper's example: goal 0.9, so a file needs `p^v′ < 0.1` —
/// at `p = 0.5` that is 4 copies, at `p = 0.1` a single copy suffices.
pub fn adaptive_volatile_degree(p: f64, goal: f64, max_v: u32) -> u32 {
    assert!((0.0..1.0).contains(&goal), "goal must be in [0,1)");
    assert!(max_v >= 1);
    if p <= 0.0 {
        return 1;
    }
    if p >= 1.0 {
        return max_v; // nothing helps; cap the cost
    }
    // v' = ceil( ln(1-goal) / ln(p) ), with an epsilon so exact solutions
    // (e.g. p = 0.1, goal = 0.9 → v' = 1) don't round up on f64 noise.
    let v = ((1.0 - goal).ln() / p.ln() - 1e-9).ceil();
    (v as u32).clamp(1, max_v)
}

/// Priority of a pending re-replication. Reliable files always outrank
/// opportunistic ones (§IV-A: the NameNode issues "replication requests
/// giving higher priority to reliable files"); ties break by how many
/// replicas survive (fewer = more urgent), then by block id for
/// determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationRequest {
    /// Block needing another replica.
    pub block: BlockId,
    /// File class of the owning file.
    pub kind: FileKind,
    /// Number of live replicas at enqueue time.
    pub live_replicas: u32,
}

impl Ord for ReplicationRequest {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the max; we want reliable-first, then fewest
        // replicas, then lowest block id.
        let kind_rank = |k: FileKind| match k {
            FileKind::Reliable => 1,
            FileKind::Opportunistic => 0,
        };
        kind_rank(self.kind)
            .cmp(&kind_rank(other.kind))
            .then_with(|| other.live_replicas.cmp(&self.live_replicas))
            .then_with(|| other.block.cmp(&self.block))
    }
}

impl PartialOrd for ReplicationRequest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of blocks awaiting re-replication; a block appears at
/// most once.
#[derive(Debug, Default)]
pub struct ReplicationQueue {
    heap: BinaryHeap<ReplicationRequest>,
    queued: HashSet<BlockId>,
}

impl ReplicationQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct blocks queued.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// Enqueue a block (no-op if already queued). Returns true if added.
    pub fn enqueue(&mut self, req: ReplicationRequest) -> bool {
        if !self.queued.insert(req.block) {
            return false;
        }
        self.heap.push(req);
        true
    }

    /// Pop the most urgent block.
    pub fn pop(&mut self) -> Option<ReplicationRequest> {
        let req = self.heap.pop()?;
        self.queued.remove(&req.block);
        Some(req)
    }

    /// Is this block already queued?
    pub fn contains(&self, block: BlockId) -> bool {
        self.queued.contains(&block)
    }

    /// Remove a block (e.g. its file was deleted or it recovered).
    pub fn remove(&mut self, block: BlockId) -> bool {
        if !self.queued.remove(&block) {
            return false;
        }
        // Lazy deletion: rebuild without the block (queue sizes here are
        // small; simplicity over cleverness).
        self.heap = self.heap.drain().filter(|r| r.block != block).collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_availability_example() {
        // §I: at p=0.4, eleven replicas give 99.99% availability.
        let a = volatile_availability(0.4, 11);
        assert!(a > 0.9999, "got {a}");
        let a10 = volatile_availability(0.4, 10);
        assert!(a10 < 0.9999);
    }

    #[test]
    fn adaptive_degree_examples() {
        // Goal 0.9 (the paper's default availability level).
        assert_eq!(adaptive_volatile_degree(0.1, 0.9, 10), 1);
        assert_eq!(adaptive_volatile_degree(0.3, 0.9, 10), 2);
        assert_eq!(adaptive_volatile_degree(0.5, 0.9, 10), 4);
        assert_eq!(adaptive_volatile_degree(0.7, 0.9, 10), 7);
    }

    #[test]
    fn adaptive_degree_clamps() {
        assert_eq!(adaptive_volatile_degree(0.0, 0.9, 10), 1);
        assert_eq!(adaptive_volatile_degree(0.99, 0.9, 5), 5);
        assert_eq!(adaptive_volatile_degree(1.0, 0.9, 5), 5);
    }

    #[test]
    fn adaptive_degree_meets_goal() {
        for p10 in 1..10 {
            let p = p10 as f64 / 10.0;
            let v = adaptive_volatile_degree(p, 0.9, 100);
            assert!(
                volatile_availability(p, v) >= 0.9,
                "p={p} v={v} misses goal"
            );
            if v > 1 {
                assert!(
                    volatile_availability(p, v - 1) < 0.9,
                    "p={p}: v−1 already meets the goal; v not minimal"
                );
            }
        }
    }

    fn req(block: u64, kind: FileKind, live: u32) -> ReplicationRequest {
        ReplicationRequest {
            block: BlockId(block),
            kind,
            live_replicas: live,
        }
    }

    #[test]
    fn queue_prioritises_reliable_then_scarcity() {
        let mut q = ReplicationQueue::new();
        q.enqueue(req(1, FileKind::Opportunistic, 0));
        q.enqueue(req(2, FileKind::Reliable, 3));
        q.enqueue(req(3, FileKind::Reliable, 1));
        q.enqueue(req(4, FileKind::Opportunistic, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|r| r.block.0)).collect();
        assert_eq!(order, vec![3, 2, 1, 4]);
    }

    #[test]
    fn queue_dedupes_blocks() {
        let mut q = ReplicationQueue::new();
        assert!(q.enqueue(req(1, FileKind::Reliable, 1)));
        assert!(!q.enqueue(req(1, FileKind::Reliable, 0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn queue_remove() {
        let mut q = ReplicationQueue::new();
        q.enqueue(req(1, FileKind::Reliable, 1));
        q.enqueue(req(2, FileKind::Opportunistic, 1));
        assert!(q.remove(BlockId(1)));
        assert!(!q.remove(BlockId(1)));
        assert_eq!(q.pop().unwrap().block, BlockId(2));
        assert!(q.is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        let mut q = ReplicationQueue::new();
        q.enqueue(req(9, FileKind::Reliable, 1));
        q.enqueue(req(4, FileKind::Reliable, 1));
        assert_eq!(q.pop().unwrap().block, BlockId(4));
    }
}
