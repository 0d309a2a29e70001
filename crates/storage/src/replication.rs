//! Storage-side primitives for WAL-shipping replication (DESIGN.md §15).
//!
//! The model is a single primary and N read replicas. The primary's WAL
//! already journals every committed batch under a monotonically increasing
//! commit sequence number (embedded in each frame — see
//! [`crate::store::Store::apply`]); replication simply ships those frames:
//!
//! * the primary answers subscription reads via
//!   [`crate::Store::replication_read`], serving a gapless run of
//!   committed entries after the subscriber's watermark, or telling it to
//!   bootstrap from a snapshot when compaction has retired that suffix;
//! * a replica applies each shipped batch through [`apply_replicated`],
//!   which folds the *applied-sequence watermark* into the same
//!   [`WriteBatch`] — one atomic commit, so a crash at any instant leaves
//!   watermark and data in agreement and restart resumes idempotently;
//! * a fresh (or diverged) replica installs a full snapshot through
//!   [`install_snapshot`], which brackets the multi-batch import with a
//!   bootstrap sentinel so an interrupted install is detected on restart
//!   and redone rather than trusted.
//!
//! All replica-side metadata lives in the `__repl_meta` tree, which
//! [`crate::Store::content_dump`] excludes — a replica's user-visible
//! contents stay byte-comparable to its primary's.

use crate::batch::WriteBatch;
use crate::codec::Decode;
use crate::error::{StorageError, StorageResult};
use crate::store::Store;

/// Tree holding replica-local replication metadata. The `__repl` prefix
/// keeps it out of [`Store::content_dump`] and out of snapshot shipping.
pub const REPL_META_TREE: &str = "__repl_meta";

/// Key (in [`REPL_META_TREE`]) of the applied-sequence watermark: the
/// newest primary commit sequence number this replica has fully applied,
/// as 8 big-endian bytes.
pub const WATERMARK_KEY: &[u8] = b"applied_seq";

/// Key (in [`REPL_META_TREE`]) of the bootstrap sentinel, present while a
/// snapshot install is in progress. A replica that finds it on startup
/// must discard its state and re-bootstrap.
pub const BOOTSTRAP_KEY: &[u8] = b"bootstrapping";

/// Ops per batch when installing a snapshot. Keeps every journaled frame
/// far below the WAL's 16 MiB entry bound even with large values.
const INSTALL_CHUNK_OPS: usize = 4096;
/// Value bytes per install batch before it is cut early.
const INSTALL_CHUNK_BYTES: usize = 4 * 1024 * 1024;

/// One committed entry shipped to a subscriber: the primary's commit
/// sequence number and the encoded [`WriteBatch`] it journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplEntry {
    /// Commit sequence number the primary assigned this batch.
    pub seq: u64,
    /// The batch, encoded with [`WriteBatch::encode_to_bytes`].
    pub batch: Vec<u8>,
}

/// Result of a [`Store::replication_read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplRead {
    /// A gapless run of committed entries starting at `from_seq + 1`
    /// (possibly empty when the subscriber is caught up).
    Entries {
        /// The entries, in sequence order.
        entries: Vec<ReplEntry>,
        /// The primary's newest committed sequence number at the read.
        committed_seq: u64,
        /// Bytes of committed entries past this page (lag in bytes).
        backlog_bytes: u64,
    },
    /// Compaction already retired the requested suffix; the subscriber
    /// must bootstrap from a snapshot before tailing again.
    SnapshotNeeded {
        /// The primary's newest committed sequence number at the read.
        committed_seq: u64,
    },
}

/// The replica's applied-sequence watermark: the newest primary sequence
/// number whose batch is fully applied here (0 before any).
pub fn applied_watermark(store: &Store) -> u64 {
    store
        .get(REPL_META_TREE, WATERMARK_KEY)
        .and_then(|v| <[u8; 8]>::try_from(v.as_slice()).ok())
        .map(u64::from_be_bytes)
        .unwrap_or(0)
}

/// True when a snapshot install was interrupted: the store's contents are
/// a torn mix of old and new state and must not be served or tailed —
/// re-bootstrap instead.
pub fn bootstrap_pending(store: &Store) -> bool {
    store.contains(REPL_META_TREE, BOOTSTRAP_KEY)
}

/// Apply one shipped entry on a replica. The watermark advance rides in
/// the same [`WriteBatch`] as the entry's ops, so the commit is atomic:
/// readers never see a torn batch, and a crash leaves watermark and data
/// consistent — restart simply resubscribes from the watermark.
///
/// Entries at or below the current watermark were already applied (a
/// redelivery after reconnect) and are skipped; an entry further ahead
/// than `watermark + 1` means the stream has a gap and is refused.
pub fn apply_replicated(store: &Store, entry: &ReplEntry) -> StorageResult<()> {
    let watermark = applied_watermark(store);
    if entry.seq <= watermark {
        return Ok(());
    }
    if entry.seq != watermark + 1 {
        return Err(StorageError::Corrupt(format!(
            "replication gap: entry {} arrived at watermark {watermark}",
            entry.seq
        )));
    }
    let mut batch = WriteBatch::decode_from_bytes(&entry.batch)?;
    batch.put(REPL_META_TREE, WATERMARK_KEY.to_vec(), entry.seq.to_be_bytes().to_vec());
    store.apply(&batch)
}

/// Install a full snapshot (bytes from [`Store::export_snapshot`] on the
/// primary) over this replica's store, replacing all user-visible
/// contents. Returns the sequence number the snapshot covers, which
/// becomes the new watermark.
///
/// The import spans many batches, so it cannot be atomic; instead it is
/// *detectably* non-atomic: a bootstrap sentinel is committed first and
/// removed in the same final batch that sets the watermark. The WAL's
/// prefix-replay invariant orders those commits, so any recovered state
/// either predates the install, carries the sentinel (→ re-bootstrap), or
/// is complete.
pub fn install_snapshot(store: &Store, snapshot: &[u8]) -> StorageResult<u64> {
    let (trees, covered_seq) = Store::parse_snapshot(snapshot)?;

    store.put(REPL_META_TREE, BOOTSTRAP_KEY.to_vec(), covered_seq.to_be_bytes().to_vec())?;

    // Clear existing user-visible contents (chunked deletes).
    for name in store.tree_names() {
        if name.starts_with("__repl") {
            continue;
        }
        let mut batch = WriteBatch::new();
        for (key, _) in store.scan_all(&name) {
            batch.delete(&name, key);
            if batch.len() >= INSTALL_CHUNK_OPS {
                store.apply(&batch)?;
                batch = WriteBatch::new();
            }
        }
        store.apply(&batch)?;
    }

    // Load the snapshot's pairs (chunked inserts).
    let mut batch = WriteBatch::new();
    let mut batch_bytes = 0usize;
    for (name, tree) in &trees {
        if name.starts_with("__repl") {
            // A primary that was once a replica may carry stale
            // replication metadata; it is node-local and never shipped.
            continue;
        }
        for (key, value) in tree {
            batch_bytes += key.len() + value.len();
            batch.put(name.as_str(), key.clone(), value.clone());
            if batch.len() >= INSTALL_CHUNK_OPS || batch_bytes >= INSTALL_CHUNK_BYTES {
                store.apply(&batch)?;
                batch = WriteBatch::new();
                batch_bytes = 0;
            }
        }
    }
    // Final batch: watermark in, sentinel out — one atomic commit flips
    // the store from "bootstrapping" to "consistent at covered_seq".
    batch.put(REPL_META_TREE, WATERMARK_KEY.to_vec(), covered_seq.to_be_bytes().to_vec());
    batch.delete(REPL_META_TREE, BOOTSTRAP_KEY.to_vec());
    store.apply(&batch)?;
    store.sync()?;
    Ok(covered_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("softrep-repl-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put(store: &Store, tree: &str, k: &str, v: &str) {
        store.put(tree, k.as_bytes().to_vec(), v.as_bytes().to_vec()).unwrap();
    }

    #[test]
    fn tail_replicates_to_identical_contents() {
        let primary = Store::open(tmpdir("tail-p")).unwrap();
        let replica = Store::open(tmpdir("tail-r")).unwrap();
        for i in 0..50 {
            put(&primary, "t", &format!("k{i}"), &format!("v{i}"));
        }
        primary.delete("t", b"k7".to_vec()).unwrap();

        let mut watermark = applied_watermark(&replica);
        loop {
            match primary.replication_read(watermark, 8, 1 << 16).unwrap() {
                ReplRead::Entries { entries, committed_seq, .. } => {
                    for e in &entries {
                        apply_replicated(&replica, e).unwrap();
                    }
                    watermark = applied_watermark(&replica);
                    if watermark == committed_seq {
                        break;
                    }
                }
                ReplRead::SnapshotNeeded { .. } => panic!("nothing compacted yet"),
            }
        }
        assert_eq!(watermark, primary.committed_seq());
        assert_eq!(primary.content_dump(), replica.content_dump());
        assert!(replica.get("t", b"k7").is_none());
    }

    #[test]
    fn caught_up_subscriber_gets_empty_page() {
        let primary = Store::open(tmpdir("caught-up")).unwrap();
        put(&primary, "t", "k", "v");
        let seq = primary.committed_seq();
        match primary.replication_read(seq, 8, 1 << 16).unwrap() {
            ReplRead::Entries { entries, committed_seq, backlog_bytes } => {
                assert!(entries.is_empty());
                assert_eq!(committed_seq, seq);
                assert_eq!(backlog_bytes, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn limits_page_the_stream_and_report_backlog() {
        let primary = Store::open(tmpdir("paged")).unwrap();
        for i in 0..20 {
            put(&primary, "t", &format!("k{i}"), "value-of-some-size");
        }
        let ReplRead::Entries { entries, backlog_bytes, .. } =
            primary.replication_read(0, 5, usize::MAX).unwrap()
        else {
            panic!("expected entries");
        };
        assert_eq!(entries.len(), 5);
        assert_eq!(entries.first().unwrap().seq, 1);
        assert_eq!(entries.last().unwrap().seq, 5);
        assert!(backlog_bytes > 0, "15 undelivered entries must be accounted");
    }

    #[test]
    fn pages_end_before_an_entry_that_would_pass_the_byte_cap() {
        let primary = Store::open(tmpdir("bytecap")).unwrap();
        put(&primary, "t", "a", "small");
        put(&primary, "t", "b", &"x".repeat(4096));
        put(&primary, "t", "c", "small");
        let page = |from| match primary.replication_read(from, 64, 1024).unwrap() {
            ReplRead::Entries { entries, .. } => entries,
            ReplRead::SnapshotNeeded { .. } => panic!("expected entries"),
        };
        // The big entry would pass the cap, so the first page stops short
        // of it; on the next page it is first, and travels alone.
        let first = page(0);
        assert_eq!(first.iter().map(|e| e.seq).collect::<Vec<_>>(), [1]);
        let second = page(1);
        assert_eq!(second.iter().map(|e| e.seq).collect::<Vec<_>>(), [2]);
        assert!(second[0].batch.len() > 1024);
        assert_eq!(page(2).iter().map(|e| e.seq).collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn compaction_forces_snapshot_bootstrap() {
        let primary = Store::open(tmpdir("snap-p")).unwrap();
        for i in 0..30 {
            put(&primary, "t", &format!("k{i}"), &format!("v{i}"));
        }
        primary.compact().unwrap();
        // The log was retired: a from-scratch subscriber cannot tail.
        assert!(matches!(
            primary.replication_read(0, 64, 1 << 20).unwrap(),
            ReplRead::SnapshotNeeded { .. }
        ));

        let replica = Store::open(tmpdir("snap-r")).unwrap();
        put(&replica, "stale", "old", "state");
        let (seq, bytes) = primary.export_snapshot();
        let installed = install_snapshot(&replica, &bytes).unwrap();
        assert_eq!(installed, seq);
        assert_eq!(applied_watermark(&replica), seq);
        assert!(!bootstrap_pending(&replica));
        assert_eq!(primary.content_dump(), replica.content_dump());
        assert!(replica.get("stale", b"old").is_none(), "pre-install state replaced");

        // Post-snapshot writes tail normally from the watermark.
        put(&primary, "t", "k-post", "v-post");
        let ReplRead::Entries { entries, .. } = primary.replication_read(seq, 64, 1 << 20).unwrap()
        else {
            panic!("expected entries");
        };
        for e in &entries {
            apply_replicated(&replica, e).unwrap();
        }
        assert_eq!(primary.content_dump(), replica.content_dump());
    }

    #[test]
    fn redelivery_is_idempotent_and_gaps_are_refused() {
        let primary = Store::open(tmpdir("gaps-p")).unwrap();
        let replica = Store::open(tmpdir("gaps-r")).unwrap();
        for i in 0..3 {
            put(&primary, "t", &format!("k{i}"), "v");
        }
        let ReplRead::Entries { entries, .. } = primary.replication_read(0, 64, 1 << 20).unwrap()
        else {
            panic!("expected entries");
        };
        apply_replicated(&replica, &entries[0]).unwrap();
        // Redelivering the same entry is a no-op.
        apply_replicated(&replica, &entries[0]).unwrap();
        assert_eq!(applied_watermark(&replica), 1);
        // Skipping ahead is refused loudly.
        assert!(matches!(apply_replicated(&replica, &entries[2]), Err(StorageError::Corrupt(_))));
        assert_eq!(applied_watermark(&replica), 1);
    }

    #[test]
    fn watermark_survives_reopen() {
        let dir_p = tmpdir("wm-p");
        let dir_r = tmpdir("wm-r");
        let primary = Store::open(&dir_p).unwrap();
        {
            let replica = Store::open(&dir_r).unwrap();
            for i in 0..10 {
                put(&primary, "t", &format!("k{i}"), "v");
            }
            let ReplRead::Entries { entries, .. } =
                primary.replication_read(0, 64, 1 << 20).unwrap()
            else {
                panic!("expected entries");
            };
            for e in &entries {
                apply_replicated(&replica, e).unwrap();
            }
            replica.sync().unwrap();
        }
        let replica = Store::open(&dir_r).unwrap();
        assert_eq!(applied_watermark(&replica), 10);
        assert!(!bootstrap_pending(&replica));
        assert_eq!(primary.content_dump(), replica.content_dump());
    }

    #[test]
    fn primary_sequence_numbering_survives_reopen_and_compaction() {
        let dir = tmpdir("seq-reopen");
        {
            let s = Store::open(&dir).unwrap();
            for i in 0..5 {
                put(&s, "t", &format!("k{i}"), "v");
            }
            assert_eq!(s.committed_seq(), 5);
            s.sync().unwrap();
        }
        {
            let s = Store::open(&dir).unwrap();
            assert_eq!(s.committed_seq(), 5, "ledger resumes from the replayed log");
            put(&s, "t", "k5", "v");
            assert_eq!(s.committed_seq(), 6);
            s.compact().unwrap();
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.committed_seq(), 6, "ledger resumes from the snapshot's covered seq");
        put(&s, "t", "k6", "v");
        assert_eq!(s.committed_seq(), 7);
    }

    #[test]
    fn in_memory_store_refuses_replication_reads() {
        let s = Store::in_memory();
        s.put("t", b"k".to_vec(), b"v".to_vec()).unwrap();
        assert!(matches!(s.replication_read(0, 8, 1 << 16), Err(StorageError::Unsupported(_))));
    }

    #[test]
    fn interrupted_install_leaves_the_sentinel() {
        let primary = Store::open(tmpdir("sentinel-p")).unwrap();
        put(&primary, "t", "k", "v");
        let replica = Store::open(tmpdir("sentinel-r")).unwrap();
        // Simulate the crash window by writing the sentinel the way
        // install_snapshot does, without finishing.
        replica.put(REPL_META_TREE, BOOTSTRAP_KEY.to_vec(), 1u64.to_be_bytes().to_vec()).unwrap();
        assert!(bootstrap_pending(&replica));
        // A completed install clears it.
        let (_, bytes) = primary.export_snapshot();
        install_snapshot(&replica, &bytes).unwrap();
        assert!(!bootstrap_pending(&replica));
    }
}
