//! Shared machinery for the crash-schedule explorer: run a workload once
//! against a `SimVfs`, then reconstruct and recover the durable image at
//! every crash point.
//!
//! The flow (DESIGN.md §13):
//!
//! 1. Drive a workload against `Store::open_with_vfs(..., SimVfs)`. The
//!    simulator records every operation; fsync/rename/remove events are
//!    *durable sites*. After each durability confirmation (an `Always`
//!    apply or an explicit `sync()` returning `Ok`), the workload records
//!    the current site count — the point after which that batch may never
//!    be lost.
//! 2. For each site `k` and each [`CrashStyle`], reconstruct the durable
//!    image a crash there would leave ([`durable_image_at`]) — a pure
//!    replay of the event log, no re-execution.
//! 3. Materialize the image into a real directory and recover it with the
//!    production `Store::open`, then check the recovery invariant: the
//!    recovered history is a gapless prefix of the applied batches, every
//!    batch is atomic across trees, and every batch confirmed durable by
//!    site `k` is present.

#![allow(
    dead_code,
    reason = "shared by several test binaries; each uses a different slice of the API"
)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use softwareputation::storage::{
    CrashStyle, DurabilityMode, SimVfs, Store, StoreOptions, VfsEvent, WriteBatch,
};

/// Two trees every canonical batch straddles, so a half-applied batch is
/// observable as a key present in one tree but not the other.
pub const TREE_A: &str = "crash_a";
/// See [`TREE_A`].
pub const TREE_B: &str = "crash_b";

/// One recorded run of a workload against a `SimVfs`.
pub struct Recording {
    /// The full event log.
    pub log: Vec<VfsEvent>,
    /// Total durable sites in `log`.
    pub sites: usize,
    /// For batch `i` (0-based), the durable-site count at the moment its
    /// durability was confirmed to the caller.
    pub confirmed_at: Vec<usize>,
    /// Batches the workload applied (batch `i` = `batch_key(i)` in both
    /// trees).
    pub total_batches: usize,
}

/// Key of canonical batch `i`.
pub fn batch_key(i: usize) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
}

/// Value of canonical batch `i`.
pub fn batch_value(i: usize) -> Vec<u8> {
    format!("value-{i:04}").into_bytes()
}

/// The canonical workload: `total` two-tree batches in `Always` mode
/// (every apply returns durably confirmed), with compactions interleaved
/// at the given batch indices so the log covers WAL rotation, snapshot
/// write/rename, and `WAL.old` retirement — not just appends and fsyncs.
pub fn record_canonical_workload(total: usize, compact_after: &[usize]) -> Recording {
    let vfs = SimVfs::new();
    let store = Store::open_with_vfs(
        "/sim/crash-store",
        StoreOptions { durability: DurabilityMode::Always, shards: 4 },
        Arc::new(vfs.clone()),
    )
    .expect("open sim store");
    let mut confirmed_at = Vec::with_capacity(total);
    for i in 0..total {
        let mut batch = WriteBatch::new();
        batch.put(TREE_A, batch_key(i), batch_value(i));
        batch.put(TREE_B, batch_key(i), batch_value(i));
        store.apply(&batch).expect("apply canonical batch");
        // `Always` mode: the batch is group-commit durable when apply
        // returns, so a crash after the *current* site count may never
        // lose it.
        confirmed_at.push(vfs.durable_site_count());
        if compact_after.contains(&i) {
            store.compact().expect("compact");
        }
    }
    store.sync().expect("final sync");
    drop(store);
    Recording {
        log: vfs.event_log(),
        sites: vfs.durable_site_count(),
        confirmed_at,
        total_batches: total,
    }
}

/// Write a reconstructed durable image into a real directory (store files
/// are flat, so mapping by file name is exact).
pub fn materialize(image: &BTreeMap<PathBuf, Vec<u8>>, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create materialization dir");
    for (path, bytes) in image {
        let name = path.file_name().expect("image paths have file names");
        std::fs::write(dir.join(name), bytes).expect("write image file");
    }
}

/// Recover the materialized image at `dir` with the production open path
/// and assert the recovery invariant for a crash after `k` durable sites.
/// Returns the number of recovered batches.
///
/// Invariant: the recovered state is `batch 0..n` for some `n` — gapless
/// (no batch present while an earlier one is missing), atomic (each batch
/// fully in both trees or in neither), and complete (`n` covers every
/// batch whose durability was confirmed at or before site `k`).
pub fn check_recovery(dir: &Path, rec: &Recording, k: usize, label: &str) -> usize {
    let store = Store::open(dir).unwrap_or_else(|e| panic!("recovery failed at {label}: {e}"));
    let mut n = 0usize;
    for i in 0..rec.total_batches {
        let a = store.get(TREE_A, &batch_key(i));
        let b = store.get(TREE_B, &batch_key(i));
        match (a, b) {
            (Some(av), Some(bv)) => {
                assert_eq!(av, batch_value(i), "{label}: batch {i} value corrupted in {TREE_A}");
                assert_eq!(bv, batch_value(i), "{label}: batch {i} value corrupted in {TREE_B}");
                assert_eq!(
                    n, i,
                    "{label}: gap in recovered history — batch {i} present, batch {n} missing"
                );
                n += 1;
            }
            (None, None) => {}
            (a, b) => panic!(
                "{label}: half-applied batch {i}: present in {TREE_A}={} {TREE_B}={}",
                a.is_some(),
                b.is_some()
            ),
        }
    }
    let required = rec.confirmed_at.iter().filter(|&&site| site <= k).count();
    assert!(
        n >= required,
        "{label}: lost committed batches — {n} recovered but {required} were confirmed \
         durable by site {k}"
    );
    assert_eq!(store.tree_len(TREE_A), n, "{label}: stray keys in {TREE_A}");
    assert_eq!(store.tree_len(TREE_B), n, "{label}: stray keys in {TREE_B}");
    drop(store);
    // Recovery must be idempotent: a second open (another crash before any
    // new writes) sees the same history.
    let store = Store::open(dir).unwrap_or_else(|e| panic!("re-recovery failed at {label}: {e}"));
    assert_eq!(store.tree_len(TREE_A), n, "{label}: second recovery diverged");
    n
}

/// Human label for a crash point: which site, which style, and what the
/// next durable event would have been.
pub fn site_label(rec: &Recording, k: usize, style: CrashStyle) -> String {
    let next = rec
        .log
        .iter()
        .filter(|e| e.is_durable_site())
        .nth(k)
        .map_or_else(|| "end of workload".to_string(), VfsEvent::label);
    format!("site {k}/{} (next durable op: {next}) style {style:?}", rec.sites)
}
