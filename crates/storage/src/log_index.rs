//! Sparse in-memory index from commit sequence number to byte offset over
//! the live log files (`WAL.old`, `WAL`), and the ranged reader that
//! serves a replication page through it (DESIGN.md §15).
//!
//! Each file's index holds the `(sequence, offset)` of every
//! [`STRIDE`]-th frame plus the file's frame count and end offset: a few
//! KiB for a log of tens of MiB. A page read seeks to the indexed frame
//! at or below the first wanted sequence, walks fewer than `STRIDE`
//! frames to it, and reads only the page's frames after that, so its cost
//! follows the page, not the log. Every frame it reads is CRC-checked.
//!
//! The index is derived state. `Store::open` rebuilds it from the frame
//! walk recovery already does, the commit critical section extends it,
//! compaction hands it from `WAL` to `WAL.old` and drops it with the file,
//! and it is never persisted: the log alone rebuilds it.

use std::path::Path;

use crate::error::{StorageError, StorageResult};
use crate::replication::{ReplEntry, ReplRead};
use crate::vfs::Vfs;
use crate::wal::{self, Frames};

/// Frames between two indexed offsets.
pub(crate) const STRIDE: u64 = 64;

/// Bytes a page read asks the VFS for at a time (more when one frame is
/// larger).
const READ_CHUNK: usize = 64 * 1024;

/// Bytes of a WAL frame that are not batch: the 8-byte frame header and
/// the 8-byte commit-sequence prefix of its payload.
const FRAME_OVERHEAD: u64 = 16;

/// The index of one log file.
#[derive(Debug, Default)]
pub(crate) struct FileIndex {
    /// `(sequence, offset)` of frames 0, `STRIDE`, 2·`STRIDE`, ….
    marks: Vec<(u64, u64)>,
    frames: u64,
    end: u64,
}

impl FileIndex {
    /// Record the frame of commit `seq` that starts at byte `offset` and
    /// spans `span` bytes, header included. Frames arrive in file order.
    pub(crate) fn push(&mut self, seq: u64, offset: u64, span: u64) {
        debug_assert_eq!(offset, self.end, "frames are indexed in file order");
        if self.frames.is_multiple_of(STRIDE) {
            self.marks.push((seq, offset));
        }
        self.frames += 1;
        self.end = offset + span;
    }

    /// Ordinal and offset of the last indexed frame whose sequence is at
    /// most `seq`; `None` when the file starts above `seq` or is empty.
    fn seek(&self, seq: u64) -> Option<(u64, u64)> {
        let i = self.marks.partition_point(|&(s, _)| s <= seq).checked_sub(1)?;
        let &(_, offset) = self.marks.get(i)?;
        Some((i as u64 * STRIDE, offset))
    }

    fn extent(&self) -> Extent {
        Extent { frames: self.frames, end: self.end }
    }
}

/// The index of both live log files. Lives under the store's commit lock.
#[derive(Debug, Default)]
pub(crate) struct LogIndex {
    /// `WAL.old`, while a compaction has rotated the log and not yet
    /// retired the old file.
    pub(crate) old: Option<FileIndex>,
    /// `WAL`.
    pub(crate) cur: FileIndex,
}

impl LogIndex {
    /// `WAL` was renamed to `WAL.old` and a fresh, empty `WAL` opened.
    pub(crate) fn rotate(&mut self) {
        self.old = Some(std::mem::take(&mut self.cur));
    }

    /// What a page read starting at sequence `seq` needs of the index,
    /// taken at the committed cut.
    pub(crate) fn cut(&self, seq: u64) -> Cut {
        let files = [self.old.as_ref(), Some(&self.cur)];
        // The wanted frame can only be in the last file that starts at or
        // below it: sequences rise from WAL.old into WAL.
        let start = files.iter().enumerate().rev().find_map(|(i, file)| {
            let (ordinal, offset) = (*file)?.seek(seq)?;
            Some((i, ordinal, offset))
        });
        Cut { files: files.map(|file| file.map(FileIndex::extent)), start }
    }
}

/// One file's frame count and end offset at a committed cut.
#[derive(Debug, Clone, Copy)]
struct Extent {
    frames: u64,
    end: u64,
}

/// A committed cut of the index, copied under the commit lock so the read
/// itself runs off-lock: each live file's extent and where the walk to the
/// wanted sequence starts.
#[derive(Debug)]
pub(crate) struct Cut {
    /// `WAL.old`, then `WAL`.
    files: [Option<Extent>; 2],
    /// File, frame ordinal and byte offset of the indexed frame the walk
    /// starts from; `None` when no live file can hold the sequence.
    start: Option<(usize, u64, u64)>,
}

/// Serve the page of committed entries after `from_seq` from the log files
/// at `paths` (`WAL.old`, then `WAL`) through the index `cut`; see
/// `Store::replication_read` for the page rules. The caller holds the
/// compaction lock, so neither file is rotated or retired mid-read.
pub(crate) fn read_page(
    vfs: &dyn Vfs,
    paths: [&Path; 2],
    cut: &Cut,
    from_seq: u64,
    max_entries: usize,
    max_bytes: usize,
    committed_seq: u64,
) -> StorageResult<ReplRead> {
    let want = from_seq + 1;
    let Some((first_file, start_ordinal, start_offset)) = cut.start else {
        return Ok(ReplRead::SnapshotNeeded { committed_seq });
    };
    let mut entries: Vec<ReplEntry> = Vec::new();
    let mut taken_bytes = 0usize;
    for (file, (extent, path)) in cut.files.iter().zip(paths).enumerate().skip(first_file) {
        let Some(extent) = extent else { continue };
        let (mut ordinal, offset) =
            if file == first_file { (start_ordinal, start_offset) } else { (0, 0) };
        let mut reader = FrameReader::new(vfs, path, offset, extent.end);
        while let Some(span) = reader.peek()? {
            // End the page before an entry that would take it past
            // `max_bytes`, unless the page is still empty: an entry larger
            // than the cap travels alone. What remains is backlog.
            let batch_len = (span as u64).saturating_sub(FRAME_OVERHEAD) as usize;
            if !entries.is_empty()
                && (entries.len() >= max_entries || taken_bytes + batch_len > max_bytes)
            {
                let backlog_bytes = backlog(cut, file, ordinal, reader.pos());
                return Ok(ReplRead::Entries { entries, committed_seq, backlog_bytes });
            }
            let payload = reader.take(span)?;
            ordinal += 1;
            let seq = entry_seq(payload)?;
            if entries.is_empty() {
                if seq < want {
                    continue; // walking from the indexed frame to `want`
                }
                if seq != want {
                    // The log holds no frame `want`: compaction retired it.
                    return Ok(ReplRead::SnapshotNeeded { committed_seq });
                }
            }
            let batch = payload.get(8..).unwrap_or_default();
            taken_bytes += batch.len();
            entries.push(ReplEntry { seq, batch: batch.to_vec() });
        }
    }
    if entries.is_empty() {
        return Ok(ReplRead::SnapshotNeeded { committed_seq });
    }
    Ok(ReplRead::Entries { entries, committed_seq, backlog_bytes: 0 })
}

/// Batch bytes of every committed frame from frame `ordinal`, which starts
/// at byte `offset` of live file `file`, to the cut: the byte span less
/// each frame's header and sequence prefix.
fn backlog(cut: &Cut, file: usize, ordinal: u64, offset: u64) -> u64 {
    cut.files
        .iter()
        .enumerate()
        .skip(file)
        .filter_map(|(i, extent)| {
            let extent = (*extent)?;
            let (ordinal, offset) = if i == file { (ordinal, offset) } else { (0, 0) };
            Some((extent.end - offset) - FRAME_OVERHEAD * (extent.frames - ordinal))
        })
        .sum()
}

/// The commit sequence number a WAL payload starts with.
pub(crate) fn entry_seq(payload: &[u8]) -> StorageResult<u64> {
    let bytes: [u8; 8] = payload.get(..8).and_then(|s| s.try_into().ok()).ok_or_else(|| {
        StorageError::Corrupt("WAL entry shorter than its sequence header".into())
    })?;
    Ok(u64::from_le_bytes(bytes))
}

/// Reads one log file's frames forward from a frame boundary up to the
/// committed end, a chunk at a time, through [`Vfs::read_range`].
struct FrameReader<'a> {
    vfs: &'a dyn Vfs,
    path: &'a Path,
    /// End of the file at the committed cut.
    end: u64,
    /// File offset of `buf[0]`.
    base: u64,
    buf: Vec<u8>,
    /// Position in `buf` of the next frame.
    at: usize,
}

impl<'a> FrameReader<'a> {
    fn new(vfs: &'a dyn Vfs, path: &'a Path, offset: u64, end: u64) -> Self {
        FrameReader { vfs, path, end, base: offset, buf: Vec::new(), at: 0 }
    }

    /// File offset of the next frame.
    fn pos(&self) -> u64 {
        self.base + self.at as u64
    }

    fn buffered(&self) -> &[u8] {
        self.buf.get(self.at..).unwrap_or_default()
    }

    /// Span of the next frame, header included, or `None` at the end.
    fn peek(&mut self) -> StorageResult<Option<usize>> {
        if self.pos() >= self.end {
            return Ok(None);
        }
        self.fill(8)?;
        match wal::frame_span(self.buffered()) {
            Some(span) => Ok(Some(span)),
            None => Err(self.corrupt("a malformed frame header")),
        }
    }

    /// The payload of the next frame, whose span [`FrameReader::peek`]
    /// returned, CRC-checked; the reader moves past it.
    fn take(&mut self, span: usize) -> StorageResult<&[u8]> {
        self.fill(span)?;
        let at = self.at;
        let frame = self.buf.get(at..at + span).unwrap_or_default();
        match Frames::new(frame).next() {
            Some((_, payload)) if payload.len() + 8 == span => {
                self.at = at + span;
                Ok(payload)
            }
            _ => Err(self.corrupt("a frame that fails its CRC")),
        }
    }

    /// Buffer at least `n` bytes from the next frame on, reading a chunk.
    fn fill(&mut self, n: usize) -> StorageResult<()> {
        if self.buffered().len() >= n {
            return Ok(());
        }
        let pos = self.pos();
        if pos + n as u64 > self.end {
            return Err(self.corrupt("a frame that runs past the committed end"));
        }
        let len = n.max(READ_CHUNK).min((self.end - pos) as usize);
        self.buf = self.vfs.read_range(self.path, pos, len)?;
        self.base = pos;
        self.at = 0;
        Ok(())
    }

    fn corrupt(&self, what: &str) -> StorageError {
        StorageError::Corrupt(format!(
            "{} holds {what} at byte {}",
            self.path.display(),
            self.pos()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use crate::commit::{DurabilityMode, StoreOptions};
    use crate::vfs::{SimVfs, VfsFile};
    use crate::Store;

    #[test]
    fn marks_every_stride_and_seeks_at_or_below() {
        let mut index = FileIndex::default();
        for i in 0..1000u64 {
            index.push(101 + i, i * 50, 50);
        }
        assert_eq!(index.marks.len(), 16, "one mark per {STRIDE} frames");
        assert_eq!(index.extent().end, 50_000);
        assert_eq!(index.seek(100), None, "the file starts above 100");
        assert_eq!(index.seek(101), Some((0, 0)));
        assert_eq!(index.seek(101 + 64), Some((64, 64 * 50)));
        assert_eq!(index.seek(101 + 127), Some((64, 64 * 50)));
        assert_eq!(index.seek(u64::MAX), Some((960, 960 * 50)));

        let mut log = LogIndex { old: None, cur: index };
        log.rotate();
        assert_eq!(log.cut(101).start, Some((0, 0, 0)), "the rotated frames live in WAL.old");
        assert_eq!(log.cut(100).start, None);
        log.cur.push(1101, 0, 50);
        assert_eq!(log.cut(1101).start, Some((1, 0, 0)));
    }

    /// [`SimVfs`] that counts the bytes every read returns.
    struct Counting {
        inner: SimVfs,
        read: Arc<AtomicU64>,
    }

    impl Vfs for Counting {
        fn open_append(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
            self.inner.open_append(path)
        }
        fn create(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
            self.inner.create(path)
        }
        fn try_read(&self, path: &Path) -> StorageResult<Option<Vec<u8>>> {
            let raw = self.inner.try_read(path)?;
            self.read.fetch_add(raw.as_ref().map_or(0, Vec::len) as u64, Ordering::Relaxed);
            Ok(raw)
        }
        fn read_range(&self, path: &Path, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
            self.read.fetch_add(len as u64, Ordering::Relaxed);
            self.inner.read_range(path, offset, len)
        }
        fn write(&self, path: &Path, data: &[u8]) -> StorageResult<()> {
            self.inner.write(path, data)
        }
        fn rename(&self, from: &Path, to: &Path) -> StorageResult<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> StorageResult<()> {
            self.inner.remove_file(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn create_dir_all(&self, path: &Path) -> StorageResult<()> {
            self.inner.create_dir_all(path)
        }
    }

    #[test]
    fn a_page_read_costs_the_page_not_the_log() {
        let read = Arc::new(AtomicU64::new(0));
        let vfs = Arc::new(Counting { inner: SimVfs::new(), read: Arc::clone(&read) });
        let options = StoreOptions { durability: DurabilityMode::Os, shards: 2 };
        let store = Store::open_with_vfs(PathBuf::from("/sim/o-page"), options, vfs).unwrap();
        for i in 0..20_000u64 {
            store.put("t", i.to_be_bytes().to_vec(), vec![7; 200]).unwrap();
        }
        let log_bytes = store.stats().wal_bytes;
        assert!(log_bytes > 4 << 20, "a log of {log_bytes} bytes");
        for from in [0, 9_990, 19_000] {
            read.store(0, Ordering::Relaxed);
            let ReplRead::Entries { entries, backlog_bytes, .. } =
                store.replication_read(from, 256, 128 * 1024).unwrap()
            else {
                panic!("expected entries");
            };
            assert_eq!(entries.len(), 256);
            let page: u64 = entries.iter().map(|e| e.batch.len() as u64 + FRAME_OVERHEAD).sum();
            // The page, the walk from its indexed frame, one chunk's slack.
            let bound = page + STRIDE * (page / 256) + READ_CHUNK as u64;
            let got = read.load(Ordering::Relaxed);
            assert!(got <= bound, "from {from}: read {got} bytes for a {page}-byte page");
            let left = 20_000 - from - 256;
            assert_eq!(backlog_bytes, left * (page / 256 - FRAME_OVERHEAD));
        }
    }
}
