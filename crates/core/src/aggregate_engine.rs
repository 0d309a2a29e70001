//! The incremental, sharded aggregation engine.
//!
//! The paper recomputes every software rating in one 24 h batch (§3.2).
//! That full scan is the reference semantics — [`crate::aggregate`] stays
//! bit-for-bit faithful to it — but it makes one hot title as expensive as
//! re-averaging the whole catalogue. This module holds the pure machinery
//! behind [`crate::db::ReputationDb::force_aggregation_incremental`]:
//!
//! * a **dirty set**: every mutation that can change a published rating
//!   (vote submission, trust adjustment — which dirties every title that
//!   user voted on — bootstrap seeding, moderation) marks the affected
//!   software ids; the batch then recomputes *only* those titles;
//! * a **shard plan**: dirty ids are hashed (FNV-1a) into a fixed number
//!   of shards so independent titles can be recomputed in parallel;
//! * a **bounded worker pool**: [`run_sharded`] fans shards out over a
//!   small set of scoped threads and returns results in deterministic
//!   shard-then-title order.
//!
//! Equivalence argument (DESIGN.md §9): a published rating depends only on
//! the title's vote set and its voters' trust factors. Both inputs are
//! covered by the dirty rules, so a title absent from the dirty set has a
//! stored rating identical to what the full batch would recompute; for a
//! dirty title the engine calls the *same* [`crate::aggregate`] functions
//! over the same vote scan order, so the recomputed record is bit-identical
//! to the full path's. `tests/properties.rs` checks this with randomized
//! workloads; `tests/golden_aggregation.rs` pins a 10 000-vote scenario.

// A panic on the request path turns one hostile frame or bad record into
// an outage: these lints hold outside tests (this module).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hash shards the dirty set is partitioned into.
pub const DEFAULT_SHARDS: usize = 16;

/// Worker threads recomputing shards in parallel. Deliberately small: the
/// batch is background work and must not starve the request path.
pub const DEFAULT_WORKERS: usize = 4;

/// FNV-1a 64-bit hash — stable across platforms and runs, so shard
/// assignment (and therefore recompute order) is deterministic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard a software id belongs to (`shards` must be nonzero).
pub fn shard_of(software_id: &str, shards: usize) -> usize {
    (fnv1a(software_id.as_bytes()) % shards.max(1) as u64) as usize
}

/// Partition `ids` into `shards` buckets by [`shard_of`], preserving the
/// input order inside each bucket. Empty buckets are kept so shard indices
/// stay stable.
pub fn plan_shards(ids: impl IntoIterator<Item = String>, shards: usize) -> Vec<Vec<String>> {
    let shards = shards.max(1);
    let mut plan: Vec<Vec<String>> = (0..shards).map(|_| Vec::new()).collect();
    for id in ids {
        let slot = shard_of(&id, shards);
        if let Some(bucket) = plan.get_mut(slot) {
            bucket.push(id);
        }
    }
    plan
}

/// Recompute every title in `plan` by calling `recompute` on a pool of at
/// most `workers` scoped threads (one shard is the unit of work; workers
/// pull shards from a shared cursor). Results come back flattened in
/// shard-then-title order regardless of scheduling, so callers observe a
/// deterministic write order.
pub fn run_sharded<T, F>(plan: &[Vec<String>], workers: usize, recompute: F) -> Vec<T>
where
    T: Send,
    F: Fn(&str) -> Option<T> + Sync,
{
    let workers = workers.clamp(1, plan.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<parking_lot::Mutex<Vec<T>>> =
        (0..plan.len()).map(|_| parking_lot::Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let shard = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(ids) = plan.get(shard) else { break };
                let mut out = Vec::with_capacity(ids.len());
                for id in ids {
                    if let Some(record) = recompute(id) {
                        out.push(record);
                    }
                }
                if let Some(slot) = slots.get(shard) {
                    *slot.lock() = out;
                }
            });
        }
    });

    let mut flat = Vec::new();
    for slot in slots {
        flat.extend(slot.into_inner());
    }
    flat
}

/// Point-in-time view of the engine's counters (held by
/// [`crate::db::ReputationDb`], mirrored into `server::stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregationStats {
    /// Incremental batches run (including no-op runs with an empty set).
    pub incremental_runs: u64,
    /// Full (paper-faithful) batches run.
    pub full_runs: u64,
    /// Titles recomputed by incremental batches.
    pub titles_recomputed_incremental: u64,
    /// Titles recomputed by full batches.
    pub titles_recomputed_full: u64,
    /// Software ids marked dirty (one count per mark, including re-marks).
    pub dirty_marks: u64,
    /// Software-report cache hits.
    pub report_cache_hits: u64,
    /// Software-report cache misses (report derived from storage).
    pub report_cache_misses: u64,
    /// Vendor-report cache hits.
    pub vendor_cache_hits: u64,
    /// Vendor-report cache misses.
    pub vendor_cache_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for id in ["aa", "bb", "cc", "dd"] {
            let s = shard_of(id, DEFAULT_SHARDS);
            assert!(s < DEFAULT_SHARDS);
            assert_eq!(s, shard_of(id, DEFAULT_SHARDS), "stable across calls");
        }
        assert_eq!(shard_of("anything", 1), 0);
        assert_eq!(shard_of("anything", 0), 0, "zero shard count is clamped");
    }

    #[test]
    fn plan_preserves_order_within_shards_and_covers_all_ids() {
        let ids: Vec<String> = (0..100).map(|i| format!("{i:040x}")).collect();
        let plan = plan_shards(ids.clone(), DEFAULT_SHARDS);
        assert_eq!(plan.len(), DEFAULT_SHARDS);
        let mut seen: Vec<String> = plan.iter().flatten().cloned().collect();
        assert_eq!(seen.len(), 100, "no id lost or duplicated");
        seen.sort();
        let mut want = ids;
        want.sort();
        assert_eq!(seen, want);
        for (shard, bucket) in plan.iter().enumerate() {
            for id in bucket {
                assert_eq!(shard_of(id, DEFAULT_SHARDS), shard);
            }
            // Input order (numeric here) survives inside each bucket.
            let mut sorted = bucket.clone();
            sorted.sort();
            assert_eq!(&sorted, bucket);
        }
    }

    #[test]
    fn run_sharded_returns_deterministic_order() {
        let ids: Vec<String> = (0..64).map(|i| format!("{i:040x}")).collect();
        let plan = plan_shards(ids, DEFAULT_SHARDS);
        let once = run_sharded(&plan, 4, |id| Some(id.to_string()));
        for workers in [1, 2, 8] {
            let again = run_sharded(&plan, workers, |id| Some(id.to_string()));
            assert_eq!(once, again, "order independent of worker count");
        }
        let flat: Vec<String> = plan.iter().flatten().cloned().collect();
        assert_eq!(once, flat, "shard-then-title order");
    }

    #[test]
    fn run_sharded_drops_none_results() {
        let plan = plan_shards((0..10).map(|i| format!("{i:040x}")), 4);
        let kept = run_sharded(&plan, 2, |id| id.ends_with('3').then(|| id.to_string()));
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn run_sharded_handles_empty_plan() {
        let plan: Vec<Vec<String>> = Vec::new();
        let out: Vec<String> = run_sharded(&plan, 4, |id| Some(id.to_string()));
        assert!(out.is_empty());
    }
}
