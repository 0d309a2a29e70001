//! Append-only write-ahead log with CRC-guarded entries.
//!
//! Entry layout on disk:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload: len × u8|
//! +----------------+----------------+------------------+
//! ```
//!
//! Replay scans entries in order and stops at the first frame whose length
//! or CRC does not check out — a torn tail from a crash mid-append — and
//! truncates the file there, restoring invariant 6 of DESIGN.md: *any
//! prefix of the log replays to a consistent store*.
//!
//! The backing file is held behind an `Arc` so the store's group
//! committer can run `sync_data` *outside* its commit lock while other
//! threads keep appending to the in-memory buffer; `append` itself never
//! issues a syscall until the buffer spills or a flush/sync is requested.
//!
//! All file I/O goes through a [`Vfs`] handle ([`crate::vfs`]): production
//! uses the passthrough `RealVfs` (the `open`/`replay` constructors), the
//! fault-injection harness substitutes a `SimVfs` via the `*_on` variants.
//!
//! A failed *flush* poisons the handle: a partial `write_all` can leave a
//! torn frame mid-file, and retrying the buffered bytes would lay a
//! duplicate copy after the tear — every later frame would be unreachable
//! to replay even though its fsync succeeded. Once poisoned, every write
//! path returns [`StorageError::Poisoned`] until the log is reopened
//! (replay truncates the tear). A failed `sync_data` does **not** poison:
//! no bytes were misplaced, so the group committer may simply retry.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::vfs::{self, Vfs, VfsFile};

/// Maximum sane entry size (16 MiB). Longer frames are treated as torn
/// tails rather than honoured, bounding memory during recovery of a
/// corrupted file.
const MAX_ENTRY_LEN: u32 = 16 * 1024 * 1024;

/// Buffered bytes beyond which `append` spills to the OS on its own.
const SPILL_BYTES: usize = 64 * 1024;

/// An open write-ahead log.
pub struct Wal {
    path: PathBuf,
    file: Arc<dyn VfsFile>,
    buf: Vec<u8>,
    entries: u64,
    bytes: u64,
    /// Set when a flush failed partway; see the module docs.
    poisoned: bool,
}

/// Outcome of replaying a log file.
pub struct WalReplay {
    /// The valid entry payloads, in append order.
    pub entries: Vec<Vec<u8>>,
    /// True when a torn/corrupt tail was found (and truncated away).
    pub torn: bool,
}

impl Wal {
    /// Open (creating if needed) the log at `path` for appending.
    ///
    /// Existing entries are counted so [`Wal::entries_written`] and
    /// [`Wal::len_bytes`] describe the whole log, not just this handle's
    /// appends; a torn tail is truncated so new frames start on a clean
    /// boundary.
    pub fn open(path: impl Into<PathBuf>) -> StorageResult<Self> {
        Self::open_on(&*vfs::real(), path)
    }

    /// [`Wal::open`] against an explicit [`Vfs`] (fault-injection entry).
    pub fn open_on(vfs: &dyn Vfs, path: impl Into<PathBuf>) -> StorageResult<Self> {
        let path = path.into();
        let raw = vfs.try_read(&path)?.unwrap_or_default();
        let mut frames = Frames::new(&raw);
        let count = frames.by_ref().count() as u64;
        Self::open_scanned(vfs, path, frames.outcome(count))
    }

    /// Open the log at `path` for appending when the caller has already
    /// read and walked its image, as the store's recovery does: `scan`
    /// says what the walk found, so the file is not read again. A torn
    /// tail is truncated here.
    pub(crate) fn open_scanned(vfs: &dyn Vfs, path: PathBuf, scan: Scan) -> StorageResult<Self> {
        let file = vfs.open_append(&path)?;
        if scan.torn {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        Ok(Wal {
            path,
            file,
            buf: Vec::new(),
            entries: scan.frames,
            bytes: scan.valid_len,
            poisoned: false,
        })
    }

    /// Append one entry to the in-memory buffer; a spill, flush or sync
    /// pushes it to the OS.
    pub fn append(&mut self, payload: &[u8]) -> StorageResult<()> {
        debug_assert!(payload.len() as u64 <= u64::from(MAX_ENTRY_LEN));
        if self.poisoned {
            return Err(StorageError::Poisoned(POISON_MSG));
        }
        let len = payload.len() as u32;
        let crc = crc32(payload);
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.entries += 1;
        self.bytes += 8 + u64::from(len);
        if self.buf.len() >= SPILL_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Flush buffered entries to the OS and fsync to the device.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.flush()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Flush to the OS without the fsync (fast path: survives a process
    /// crash but not a power failure). A failure here poisons the handle
    /// — the kernel may hold a partial frame, and retrying the buffer
    /// would lay duplicate bytes after the tear (see module docs).
    pub fn flush(&mut self) -> StorageResult<()> {
        if self.poisoned {
            return Err(StorageError::Poisoned(POISON_MSG));
        }
        if !self.buf.is_empty() {
            if let Err(e) = self.file.append(&self.buf) {
                self.poisoned = true;
                return Err(e);
            }
            self.buf.clear();
        }
        Ok(())
    }

    /// True once a failed flush has retired this handle (reopen the log
    /// to recover — replay truncates the torn frame).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// A shared handle to the backing file, for running `sync_data`
    /// without holding the lock that guards this `Wal`. The caller must
    /// have called [`Wal::flush`] first — only flushed bytes are covered.
    pub fn sync_handle(&self) -> Arc<dyn VfsFile> {
        Arc::clone(&self.file)
    }

    /// Total entries in the log: replayed-on-open plus appended here.
    pub fn entries_written(&self) -> u64 {
        self.entries
    }

    /// Total log size in bytes (pre-existing + appended, incl. buffered).
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Truncate the log to zero length (called after a snapshot compaction
    /// has captured all its effects). Resets both counters.
    pub fn truncate(&mut self) -> StorageResult<()> {
        self.buf.clear();
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.entries = 0;
        self.bytes = 0;
        // The file is empty and the buffer dropped: any torn frame a
        // poisoning flush left behind is gone, so the handle is clean.
        self.poisoned = false;
        Ok(())
    }

    /// Replay all valid entries from the file at `path`, truncating any
    /// torn tail in place.
    pub fn replay(path: impl AsRef<Path>) -> StorageResult<Vec<Vec<u8>>> {
        Ok(Self::replay_with_outcome(path)?.entries)
    }

    /// Like [`Wal::replay`], but also reports whether a torn tail was
    /// dropped, telling a cleanly-ended log from one that died
    /// mid-append.
    pub fn replay_with_outcome(path: impl AsRef<Path>) -> StorageResult<WalReplay> {
        Self::replay_with_outcome_on(&*vfs::real(), path.as_ref())
    }

    /// [`Wal::replay_with_outcome`] against an explicit [`Vfs`].
    pub fn replay_with_outcome_on(vfs: &dyn Vfs, path: &Path) -> StorageResult<WalReplay> {
        let Some(raw) = vfs.try_read(path)? else {
            return Ok(WalReplay { entries: Vec::new(), torn: false });
        };
        let mut frames = Frames::new(&raw);
        let entries: Vec<_> = frames.by_ref().map(|(_, payload)| payload.to_vec()).collect();
        let scan = frames.outcome(entries.len() as u64);
        if scan.torn {
            // Drop the torn tail so a future append starts from a clean
            // frame boundary.
            truncate_tail(vfs, path, scan.valid_len)?;
        }
        Ok(WalReplay { entries, torn: scan.torn })
    }
}

/// Cut the log at `path` back to its first `valid_len` bytes, durably —
/// how recovery drops a torn tail from a log it does not append to.
pub(crate) fn truncate_tail(vfs: &dyn Vfs, path: &Path, valid_len: u64) -> StorageResult<()> {
    let file = vfs.open_append(path)?;
    file.set_len(valid_len)?;
    file.sync_data()
}

/// Message carried by every [`StorageError::Poisoned`] this module emits.
const POISON_MSG: &str = "WAL flush failed partway; reopen the store to truncate the torn frame";

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: push buffered frames to the OS like the old
        // BufWriter-backed implementation did on drop.
        let _ = self.flush();
    }
}

/// What walking a log image found: where its valid prefix ends, how many
/// frames that prefix holds, and whether bytes followed it (a torn tail).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Scan {
    pub(crate) valid_len: u64,
    pub(crate) frames: u64,
    pub(crate) torn: bool,
}

/// The valid frames of a raw log image, in append order, as `(offset,
/// payload)`. Iteration stops at the first frame whose header, length or
/// CRC does not check out: a torn tail. Replay, [`Wal::open_on`], the
/// store's recovery and the replication reader all walk frames with it.
pub(crate) struct Frames<'a> {
    raw: &'a [u8],
    offset: usize,
}

impl<'a> Frames<'a> {
    pub(crate) fn new(raw: &'a [u8]) -> Self {
        Frames { raw, offset: 0 }
    }

    /// What the walk found once exhausted, given the `frames` it yielded.
    pub(crate) fn outcome(&self, frames: u64) -> Scan {
        Scan { valid_len: self.offset as u64, frames, torn: self.offset < self.raw.len() }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let (len, crc) = frame_header(self.raw, self.offset)?;
        if len > MAX_ENTRY_LEN {
            return None; // corrupt length field
        }
        let body_start = self.offset + 8;
        let body =
            body_start.checked_add(len as usize).and_then(|end| self.raw.get(body_start..end))?;
        if crc32(body) != crc {
            return None; // corrupted entry — treat as torn tail
        }
        let at = self.offset as u64;
        self.offset = body_start + body.len();
        Some((at, body))
    }
}

/// Bytes the frame at the start of `raw` spans, header included, read from
/// its header alone: `None` when fewer than 8 bytes remain or the length
/// field is beyond [`MAX_ENTRY_LEN`].
pub(crate) fn frame_span(raw: &[u8]) -> Option<usize> {
    let (len, _) = frame_header(raw, 0)?;
    (len <= MAX_ENTRY_LEN).then_some(8 + len as usize)
}

/// Decode the `(len, crc)` frame header at `offset`, or `None` when fewer
/// than 8 bytes remain (a clean end of log or a torn header — the caller
/// treats both as the end of the valid prefix).
fn frame_header(raw: &[u8], offset: usize) -> Option<(u32, u32)> {
    let header = raw.get(offset..offset.checked_add(8)?)?;
    let len = u32::from_le_bytes(header.get(..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(header.get(4..8)?.try_into().ok()?);
    Some((len, crc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("softrep-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_replay_returns_entries_in_order() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let entries = Wal::replay(&path).unwrap();
        assert_eq!(entries, vec![b"one".to_vec(), b"two".to_vec(), Vec::new()]);
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let dir = tmpdir("missing");
        let outcome = Wal::replay_with_outcome(dir.join("WAL")).unwrap();
        assert!(outcome.entries.is_empty());
        assert!(!outcome.torn);
    }

    #[test]
    fn counters_cover_preexisting_entries_and_reset_on_truncate() {
        let dir = tmpdir("counters");
        let path = dir.join("WAL");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.sync().unwrap();
        }
        // A fresh handle sees the whole log, not zero.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entries_written(), 2);
        assert_eq!(wal.len_bytes(), (8 + 5 + 8 + 6) as u64);
        wal.append(b"third").unwrap();
        assert_eq!(wal.entries_written(), 3);
        // Truncation resets *both* counters together.
        wal.truncate().unwrap();
        assert_eq!(wal.entries_written(), 0);
        assert_eq!(wal.len_bytes(), 0);
        wal.append(b"post").unwrap();
        assert_eq!(wal.entries_written(), 1);
        assert_eq!(wal.len_bytes(), (8 + 4) as u64);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"durable entry").unwrap();
        wal.append(b"casualty").unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Chop off the last 3 bytes to simulate a crash mid-write.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();

        let outcome = Wal::replay_with_outcome(&path).unwrap();
        assert_eq!(outcome.entries, vec![b"durable entry".to_vec()]);
        assert!(outcome.torn);
        // The file itself must have been truncated back to the valid prefix.
        let len_after = fs::metadata(&path).unwrap().len();
        assert_eq!(len_after, (8 + b"durable entry".len()) as u64);

        // Appending after recovery keeps the log consistent.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entries_written(), 1);
        wal.append(b"post-crash").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let entries = Wal::replay(&path).unwrap();
        assert_eq!(entries, vec![b"durable entry".to_vec(), b"post-crash".to_vec()]);
    }

    #[test]
    fn open_truncates_a_torn_tail_itself() {
        let dir = tmpdir("open-torn");
        let path = dir.join("WAL");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"whole").unwrap();
            wal.sync().unwrap();
        }
        let mut raw = fs::read(&path).unwrap();
        raw.extend_from_slice(&[9, 0, 0]); // half a header
        fs::write(&path, &raw).unwrap();

        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entries_written(), 1);
        wal.append(b"next").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"whole".to_vec(), b"next".to_vec()]);
    }

    #[test]
    fn corrupted_crc_stops_replay_at_entry() {
        let dir = tmpdir("crc");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"flipped").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let mut raw = fs::read(&path).unwrap();
        let second_body = 8 + 4 + 8; // header+body of first, header of second
        raw[second_body] ^= 0xff;
        fs::write(&path, &raw).unwrap();

        let entries = Wal::replay(&path).unwrap();
        assert_eq!(entries, vec![b"good".to_vec()]);
    }

    #[test]
    fn hostile_length_field_is_treated_as_torn() {
        let dir = tmpdir("hostile");
        let path = dir.join("WAL");
        let mut raw = Vec::new();
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(b"junk");
        fs::write(&path, &raw).unwrap();
        assert!(Wal::replay(&path).unwrap().is_empty());
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn truncate_resets_log() {
        let dir = tmpdir("trunc");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"before snapshot").unwrap();
        wal.sync().unwrap();
        wal.truncate().unwrap();
        wal.append(b"after snapshot").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"after snapshot".to_vec()]);
    }

    #[test]
    fn drop_flushes_buffered_entries() {
        let dir = tmpdir("dropflush");
        let path = dir.join("WAL");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"buffered only").unwrap();
            // No flush/sync: Drop must push it to the OS.
        }
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"buffered only".to_vec()]);
    }

    #[test]
    fn failed_flush_poisons_the_handle_until_reopen() {
        use crate::failpoint::{FailAction, Fault};
        use crate::vfs::SimVfs;
        let vfs = SimVfs::new();
        let mut wal = Wal::open_on(&vfs, "/sim/WAL").unwrap();
        wal.append(b"good").unwrap();
        wal.flush().unwrap();
        // The next flush tears partway: a partial frame reaches the file.
        vfs.failpoints().set("vfs.append", FailAction::Every(Fault::Torn));
        wal.append(b"doomed-entry").unwrap();
        assert!(matches!(wal.flush(), Err(StorageError::Io(_))));
        assert!(wal.is_poisoned());
        // Every later write path refuses with the typed poison error —
        // retrying would duplicate bytes after the tear.
        assert!(matches!(wal.append(b"more"), Err(StorageError::Poisoned(_))));
        assert!(matches!(wal.sync(), Err(StorageError::Poisoned(_))));
        vfs.failpoints().clear_all();
        drop(wal); // Drop's best-effort flush must not resurrect the buffer.
        let outcome = Wal::replay_with_outcome_on(&vfs, Path::new("/sim/WAL")).unwrap();
        assert_eq!(outcome.entries, vec![b"good".to_vec()], "clean prefix survives");
        assert!(outcome.torn, "the partial frame reads as a torn tail");
        // A fresh handle over the truncated log is serviceable again.
        let mut wal = Wal::open_on(&vfs, "/sim/WAL").unwrap();
        assert!(!wal.is_poisoned());
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
    }

    #[test]
    fn truncate_clears_poisoning() {
        use crate::failpoint::{FailAction, Fault};
        use crate::vfs::SimVfs;
        let vfs = SimVfs::new();
        let mut wal = Wal::open_on(&vfs, "/sim/WAL").unwrap();
        vfs.failpoints().set("vfs.append", FailAction::Nth(Fault::Err, 1));
        wal.append(b"entry").unwrap();
        assert!(wal.flush().is_err());
        assert!(wal.is_poisoned());
        wal.truncate().unwrap();
        assert!(!wal.is_poisoned(), "an empty file has no torn frame to protect");
        wal.append(b"fresh").unwrap();
        wal.sync().unwrap();
        assert_eq!(
            Wal::replay_with_outcome_on(&vfs, Path::new("/sim/WAL")).unwrap().entries,
            vec![b"fresh".to_vec()]
        );
    }

    #[test]
    fn any_prefix_replays_consistently() {
        // DESIGN.md invariant 6, exhaustively over every byte prefix.
        let dir = tmpdir("prefix");
        let path = dir.join("WAL");
        let mut wal = Wal::open(&path).unwrap();
        for i in 0..5u8 {
            wal.append(&vec![i; (i as usize + 1) * 3]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();

        for cut in 0..=full.len() {
            let p = dir.join(format!("WAL-{cut}"));
            fs::write(&p, &full[..cut]).unwrap();
            let entries = Wal::replay(&p).unwrap();
            // Each replayed entry must be one of the originals, in order.
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(e, &vec![i as u8; (i + 1) * 3], "cut={cut}");
            }
        }
    }
}
