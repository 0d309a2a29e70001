//! The full-scan oracle for `Store::replication_read`: read `WAL.old` and
//! `WAL` whole, walk every CRC-checked frame, and page through the ones
//! after `from_seq`. This is how the store served a page before its sparse
//! sequence index; the indexed read must answer exactly the same.

#![allow(
    dead_code,
    reason = "shared by several test binaries; each uses a different slice of the API"
)]

use std::path::Path;

use softwareputation::storage::crc::crc32;
use softwareputation::storage::{ReplEntry, ReplRead, Store};

/// Every valid frame of a store's live log files, as `(seq, batch)`, in
/// file order (`WAL.old` first).
pub struct Oracle {
    frames: Vec<(u64, Vec<u8>)>,
}

impl Oracle {
    /// Parse the raw images of `WAL.old` and `WAL`; an absent file is
    /// `None`.
    pub fn parse(old: Option<&[u8]>, cur: Option<&[u8]>) -> Self {
        let frames = [old, cur].into_iter().flatten().flat_map(valid_frames).collect();
        Oracle { frames }
    }

    /// Parse the log files in the real store directory `dir`.
    pub fn read_dir(dir: &Path) -> Self {
        let old = std::fs::read(dir.join("WAL.old")).ok();
        let cur = std::fs::read(dir.join("WAL")).ok();
        Self::parse(old.as_deref(), cur.as_deref())
    }

    /// The page `replication_read(from_seq, max_entries, max_bytes)` must
    /// return when the store's committed sequence is `committed_seq`.
    pub fn page(
        &self,
        committed_seq: u64,
        from_seq: u64,
        max_entries: usize,
        max_bytes: usize,
    ) -> ReplRead {
        if from_seq >= committed_seq {
            return ReplRead::Entries { entries: Vec::new(), committed_seq, backlog_bytes: 0 };
        }
        let max_entries = max_entries.max(1);
        let mut entries = Vec::new();
        let mut taken_bytes = 0usize;
        let mut backlog_bytes = 0u64;
        let mut full = false;
        for (seq, batch) in &self.frames {
            if *seq <= from_seq || *seq > committed_seq {
                continue;
            }
            if entries.len() >= max_entries
                || (!entries.is_empty() && taken_bytes + batch.len() > max_bytes)
            {
                full = true;
            }
            if full {
                backlog_bytes += batch.len() as u64;
                continue;
            }
            taken_bytes += batch.len();
            entries.push(ReplEntry { seq: *seq, batch: batch.clone() });
        }
        match entries.first() {
            Some(first) if first.seq == from_seq + 1 => {
                ReplRead::Entries { entries, committed_seq, backlog_bytes }
            }
            _ => ReplRead::SnapshotNeeded { committed_seq },
        }
    }

    /// Assert that `store` answers every `from_seq` in `0..=committed` for
    /// every `(max_entries, max_bytes)` in `pages` exactly as the oracle.
    pub fn assert_matches(&self, store: &Store, pages: &[(usize, usize)], ctx: &str) {
        let committed = store.committed_seq();
        for from_seq in 0..=committed {
            for &(max_entries, max_bytes) in pages {
                let got = store.replication_read(from_seq, max_entries, max_bytes);
                let got = got.unwrap_or_else(|e| panic!("{ctx}: read from {from_seq}: {e}"));
                let want = self.page(committed, from_seq, max_entries, max_bytes);
                assert!(
                    got == want,
                    "{ctx}: from_seq {from_seq}, page ({max_entries}, {max_bytes}): indexed read \
                     {} differs from the full scan {}",
                    summary(&got),
                    summary(&want)
                );
            }
        }
    }
}

/// A short description of a read for failure messages.
pub fn summary(read: &ReplRead) -> String {
    match read {
        ReplRead::Entries { entries, committed_seq, backlog_bytes } => format!(
            "Entries(seqs {:?}, committed {committed_seq}, backlog {backlog_bytes})",
            entries.iter().map(|e| e.seq).collect::<Vec<_>>()
        ),
        ReplRead::SnapshotNeeded { committed_seq } => {
            format!("SnapshotNeeded(committed {committed_seq})")
        }
    }
}

/// The `(seq, batch)` of each frame in the valid prefix of a raw log
/// image: `len u32 LE | crc32 u32 LE | payload`, the payload an 8-byte LE
/// sequence number and the batch. The walk stops at the first frame whose
/// length or CRC does not check out.
fn valid_frames(raw: &[u8]) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while let Some(header) = raw.get(offset..offset + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        let Some(body) = raw.get(offset + 8..offset + 8 + len) else { break };
        if len > 16 * 1024 * 1024 || crc32(body) != crc {
            break;
        }
        let seq = u64::from_le_bytes(body[..8].try_into().expect("sequence prefix"));
        out.push((seq, body[8..].to_vec()));
        offset += 8 + len;
    }
    out
}
