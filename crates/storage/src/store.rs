//! The store: named B-tree keyspaces with WAL durability and snapshots.
//!
//! Concurrency model (DESIGN.md §10). The tree map is striped across
//! `RwLock` shards ([`crate::shard`]), so readers of different trees never
//! share a lock and readers never wait on writer *I/O* — only on the brief
//! in-memory mutation of a batch that touches their stripe. Writers are
//! serialized by a single commit mutex whose critical section touches
//! memory only: append the encoded batch to the WAL's in-process buffer,
//! assign a commit sequence number, and mutate the affected stripes (all
//! their write locks held at once, which is what keeps a batch atomic
//! across trees). The expensive part of durability — `sync_data` — runs
//! *outside* every lock through the group committer ([`crate::commit`]):
//! one in-flight fsync covers every batch appended while it ran, so N
//! concurrent `Always`-mode writers pay ~1 fsync, not N. Compaction
//! rotates the WAL (`WAL` → `WAL.old`) in a short critical section and
//! writes the snapshot off-lock, so writes proceed during compaction;
//! recovery replays `WAL.old` before `WAL`.
//!
//! An earlier revision guarded the whole store with one mutex on the
//! theory that write volume is modest; the D10 concurrency benchmarks
//! showed that collapses read throughput on multi-core serving, which is
//! why the striped design replaced it.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

use parking_lot::Mutex;
use softrep_obs::{Counter, Histogram, SpanFamily};

use crate::batch::{BatchOp, WriteBatch};
use crate::codec::{Decode, Encode, Reader, Writer};
use crate::commit::{CommitLedger, DurabilityMode, StoreOptions};
use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::log_index::{self, FileIndex, LogIndex};
use crate::replication::ReplRead;
use crate::shard::{ShardSet, Tree};
use crate::vfs::{self, Vfs};
use crate::wal::{self, Frames, Scan, Wal};

/// A tree (keyspace) name. Plain `&str` newtype used to make call sites
/// self-documenting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeName(pub &'static str);

impl std::fmt::Display for TreeName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Everything guarded by the commit mutex: the WAL handle, the sparse
/// sequence index over the live log files, the group commit ledger, and
/// the write counters (folded in here so `stats` can snapshot them
/// coherently in one acquisition).
struct CommitState {
    wal: Option<Wal>,
    log_index: LogIndex,
    ledger: CommitLedger,
    batches_applied: u64,
    ops_since_compaction: u64,
    wal_rotations: u64,
}

/// Counters exposed for the D10 benchmarks and operational visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of trees.
    pub trees: usize,
    /// Total number of live keys across all trees.
    pub keys: usize,
    /// Batches applied since the store was opened.
    pub batches_applied: u64,
    /// Operations applied since the last compaction.
    pub ops_since_compaction: u64,
    /// Current WAL length in bytes (0 for in-memory stores).
    pub wal_bytes: u64,
    /// Completed group fsyncs.
    pub group_commits: u64,
    /// Batches made durable by an fsync another batch issued.
    pub fsyncs_saved: u64,
    /// Largest number of batches retired by a single fsync.
    pub max_group_depth: u64,
    /// WAL → WAL.old rotations performed by compaction.
    pub wal_rotations: u64,
}

/// Cached observability handles. Registered once per store against the
/// process-wide registry; recording afterwards is relaxed atomics only,
/// and every record happens *outside* the commit lock so instrumentation
/// can never widen a critical section.
struct StoreObs {
    /// Bytes appended to the WAL (durable stores only — the in-memory
    /// path records nothing and stays benchmark-identical).
    wal_appended_bytes: Arc<Counter>,
    /// `sync_data` wall time; always-on because an fsync costs ~ms and
    /// two clock reads are noise. Slow fsyncs land in the slow-op log.
    fsync: SpanFamily,
    /// Batches retired per completed group fsync — the live distribution
    /// behind the `max_group_depth` high-water mark.
    group_depth: Arc<Histogram>,
}

impl StoreObs {
    fn new() -> Self {
        let registry = softrep_obs::registry();
        StoreObs {
            wal_appended_bytes: registry.counter("softrep_store_wal_appended_bytes_total"),
            fsync: SpanFamily::always(
                "store_wal_fsync",
                registry.histogram("softrep_store_fsync_us"),
            ),
            group_depth: registry.histogram("softrep_store_group_commit_depth"),
        }
    }
}

/// Condvar-with-generation used to wake `wait_durable` waiters after a
/// group fsync completes. The generation counter makes the wait race-free
/// (a notify between predicate check and sleep is observed as a changed
/// generation); a short timeout backstops any missed edge, and under a
/// loom model the wait degrades to a schedule yield so the cooperative
/// scheduler keeps control.
struct SyncSignal {
    generation: StdMutex<u64>,
    cv: Condvar,
}

impl SyncSignal {
    fn new() -> Self {
        SyncSignal { generation: StdMutex::new(0), cv: Condvar::new() }
    }

    fn generation(&self) -> u64 {
        *self.generation.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn notify(&self) {
        let mut generation = self.generation.lock().unwrap_or_else(PoisonError::into_inner);
        *generation = generation.wrapping_add(1);
        drop(generation);
        self.cv.notify_all();
    }

    fn wait_change(&self, seen: u64) {
        if loom::hook::is_active() {
            loom::thread::yield_now();
            return;
        }
        let generation = self.generation.lock().unwrap_or_else(PoisonError::into_inner);
        if *generation != seen {
            return;
        }
        let _ = self.cv.wait_timeout(generation, Duration::from_millis(20));
    }
}

/// An embedded key-value store with named trees.
pub struct Store {
    shards: ShardSet,
    commit: Mutex<CommitState>,
    sync_signal: SyncSignal,
    /// Serializes compactions; never held while taking the commit lock
    /// for longer than the rotation critical section.
    compaction: Mutex<()>,
    durability: DurabilityMode,
    /// WAL-backed? Fixed at construction; lets `apply` skip encoding
    /// entirely for in-memory stores without taking the commit lock.
    durable: bool,
    dir: Option<PathBuf>,
    /// Every filesystem touch goes through this handle; production uses
    /// the [`crate::vfs::RealVfs`] passthrough, fault-injection tests a
    /// [`crate::vfs::SimVfs`].
    vfs: Arc<dyn Vfs>,
    obs: StoreObs,
}

const SNAPSHOT_FILE: &str = "SNAPSHOT";
const WAL_FILE: &str = "WAL";
const WAL_OLD_FILE: &str = "WAL.old";
/// Current snapshot format: body starts with a varint carrying the commit
/// sequence number the snapshot covers, so recovery can resume the
/// [`CommitLedger`] numbering and replication can ship a correct base.
const SNAPSHOT_MAGIC: &[u8; 8] = b"SREPSNP2";
/// Pre-replication format (no embedded sequence number); still readable —
/// such a snapshot covers sequence 0 as far as the ledger is concerned.
const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"SREPSNP1";

impl Store {
    /// Open a durable store rooted at `dir` with default options
    /// ([`DurabilityMode::Os`], 16 shards), creating it if absent.
    pub fn open(dir: impl Into<PathBuf>) -> StorageResult<Self> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Open a durable store with explicit durability/sharding options.
    /// Loads the last snapshot, replays `WAL.old` (a rotation interrupted
    /// by a crash) and then `WAL` on top, and finishes any interrupted
    /// compaction so `WAL.old` never outlives `open`.
    pub fn open_with(dir: impl Into<PathBuf>, options: StoreOptions) -> StorageResult<Self> {
        Self::open_with_vfs(dir, options, vfs::real())
    }

    /// [`Store::open_with`] against an explicit [`Vfs`] — the
    /// fault-injection entry point. Every durable effect of this store
    /// (opens, appends, fsyncs, renames, removes) routes through `vfs`.
    pub fn open_with_vfs(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
        vfs: Arc<dyn Vfs>,
    ) -> StorageResult<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let wal_path = dir.join(WAL_FILE);
        let wal_old_path = dir.join(WAL_OLD_FILE);

        let (mut trees, snapshot_seq) = Self::load_snapshot(&*vfs, &dir.join(SNAPSHOT_FILE))?;
        let had_rotation = vfs.exists(&wal_old_path);
        // Every frame carries its commit sequence number; the chain across
        // WAL.old and WAL must be gapless or a batch went missing.
        let mut prev_seq: Option<u64> = None;
        let mut log_index = LogIndex::default();
        let mut old_torn = false;
        if had_rotation {
            let mut index = FileIndex::default();
            let scan =
                Self::replay_log(&*vfs, &wal_old_path, &mut trees, &mut prev_seq, &mut index)?;
            if scan.torn {
                wal::truncate_tail(&*vfs, &wal_old_path, scan.valid_len)?;
            }
            old_torn = scan.torn;
            log_index.old = Some(index);
        }
        let wal_scan = if old_torn {
            // The rotated log died mid-append. Every frame in the newer
            // WAL postdates the tear, so replaying it would apply batches
            // over a gap; drop it to preserve the any-prefix invariant.
            vfs.write(&wal_path, &[])?;
            Scan::default()
        } else {
            Self::replay_log(&*vfs, &wal_path, &mut trees, &mut prev_seq, &mut log_index.cur)?
        };
        let recovered_seq = prev_seq.unwrap_or(0).max(snapshot_seq);

        let wal = Wal::open_scanned(&*vfs, wal_path, wal_scan)?;
        let store = Store {
            shards: ShardSet::new(options.shards, trees),
            commit: Mutex::new(CommitState {
                wal: Some(wal),
                log_index,
                ledger: CommitLedger::starting_at(recovered_seq),
                batches_applied: 0,
                ops_since_compaction: 0,
                wal_rotations: 0,
            }),
            sync_signal: SyncSignal::new(),
            compaction: Mutex::new(()),
            durability: options.durability,
            durable: true,
            dir: Some(dir),
            vfs,
            obs: StoreObs::new(),
        };
        if had_rotation {
            // Finish the interrupted compaction: write a snapshot that
            // covers WAL.old, then retire it.
            store.compact()?;
        }
        Ok(store)
    }

    /// Replay the log file at `path` into `trees` with one read and one
    /// walk: decode each valid frame, check its sequence continues the
    /// chain in `prev_seq`, apply it, and index its offset. Frames at or
    /// below the snapshot's covered sequence replay idempotently (puts and
    /// deletes set absolute per-key state). The file is left as found; the
    /// returned scan says where its valid prefix ends.
    fn replay_log(
        vfs: &dyn Vfs,
        path: &Path,
        trees: &mut BTreeMap<String, Tree>,
        prev_seq: &mut Option<u64>,
        index: &mut FileIndex,
    ) -> StorageResult<Scan> {
        let raw = vfs.try_read(path)?.unwrap_or_default();
        let mut frames = Frames::new(&raw);
        let mut count = 0;
        for (offset, payload) in frames.by_ref() {
            let (seq, batch) = Self::decode_wal_entry(payload)?;
            if let Some(prev) = *prev_seq {
                if seq != prev + 1 {
                    return Err(StorageError::Corrupt(format!(
                        "WAL sequence gap: frame {seq} follows frame {prev}"
                    )));
                }
            }
            *prev_seq = Some(seq);
            Self::apply_to_trees(trees, &batch);
            index.push(seq, offset, 8 + payload.len() as u64);
            count += 1;
        }
        Ok(frames.outcome(count))
    }

    /// Open a volatile store with no disk backing. API-identical to a
    /// durable store; used by the agent simulations.
    pub fn in_memory() -> Self {
        Self::in_memory_with(StoreOptions::default())
    }

    /// Volatile store with an explicit shard count (benchmarks).
    pub fn in_memory_with(options: StoreOptions) -> Self {
        Store {
            shards: ShardSet::new(options.shards, BTreeMap::new()),
            commit: Mutex::new(CommitState {
                wal: None,
                log_index: LogIndex::default(),
                ledger: CommitLedger::new(),
                batches_applied: 0,
                ops_since_compaction: 0,
                wal_rotations: 0,
            }),
            sync_signal: SyncSignal::new(),
            compaction: Mutex::new(()),
            durability: DurabilityMode::Os,
            durable: false,
            dir: None,
            vfs: vfs::real(),
            obs: StoreObs::new(),
        }
    }

    /// Apply `batch` atomically: journal first, then mutate memory — both
    /// inside one commit-ordered critical section, so recovery replay
    /// order always equals the order readers observed. Durability depends
    /// on the store's [`DurabilityMode`]; in `Always` mode this blocks
    /// until a group fsync covers the batch.
    pub fn apply(&self, batch: &WriteBatch) -> StorageResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // Encode off-lock; skipped entirely for in-memory stores. The
        // first 8 bytes are a placeholder for the commit sequence number,
        // filled in under the commit lock right before the append —
        // embedding the sequence makes the log self-describing, which is
        // what recovery's ledger resume and replication tails read back.
        let mut payload = if self.durable {
            let mut buf = vec![0u8; 8];
            buf.extend_from_slice(&batch.encode_to_bytes());
            Some(buf)
        } else {
            None
        };
        let (seq, sync_now) = {
            let mut guard = self.commit.lock();
            let commit = &mut *guard;
            let next_seq = commit.ledger.appended_seq() + 1;
            if payload.is_some() && commit.wal.is_none() {
                // A compaction rotated the log but could not reopen it.
                // Reopen it now, or refuse the write: a durable store never
                // acknowledges a batch it did not journal.
                commit.wal = Some(self.reopen_wal()?);
            }
            if let (Some(wal), Some(payload)) = (commit.wal.as_mut(), payload.as_deref_mut()) {
                if let Some(slot) = payload.get_mut(..8) {
                    slot.copy_from_slice(&next_seq.to_le_bytes());
                }
                let offset = wal.len_bytes();
                wal.append(payload)?;
                if matches!(self.durability, DurabilityMode::Os) {
                    // lint: allow(guard-io, "Os mode hands frames to the kernel inside the commit lock so append order equals WAL order; no fsync happens here")
                    wal.flush()?;
                }
                commit.log_index.cur.push(next_seq, offset, 8 + payload.len() as u64);
            }
            let bytes = payload.as_ref().map_or(0, |p| 8 + p.len() as u64);
            let seq = commit.ledger.record_append(bytes);
            self.shards.apply(batch);
            commit.batches_applied += 1;
            commit.ops_since_compaction += batch.len() as u64;
            let sync_now = match self.durability {
                DurabilityMode::Always => true,
                DurabilityMode::Batched { every_bytes } => commit.ledger.sync_due(every_bytes),
                DurabilityMode::Os => false,
            };
            (seq, sync_now)
        };
        if let Some(payload) = payload.as_deref() {
            self.obs.wal_appended_bytes.add(8 + payload.len() as u64);
        }
        if sync_now && self.durable {
            self.wait_durable(seq)?;
        }
        Ok(())
    }

    /// Open the store's `WAL` for appending (creating it if absent).
    fn reopen_wal(&self) -> StorageResult<Wal> {
        let Some(dir) = &self.dir else {
            return Err(StorageError::Unsupported("the store keeps no log directory"));
        };
        Wal::open_on(&*self.vfs, dir.join(WAL_FILE))
    }

    /// Single-key put (one-op batch).
    pub fn put(
        &self,
        tree: &str,
        key: impl Into<Vec<u8>>,
        value: impl Into<Vec<u8>>,
    ) -> StorageResult<()> {
        let mut b = WriteBatch::new();
        b.put(tree, key, value);
        self.apply(&b)
    }

    /// Single-key delete (one-op batch).
    pub fn delete(&self, tree: &str, key: impl Into<Vec<u8>>) -> StorageResult<()> {
        let mut b = WriteBatch::new();
        b.delete(tree, key);
        self.apply(&b)
    }

    /// Fetch a value. Unknown trees read as empty.
    pub fn get(&self, tree: &str, key: &[u8]) -> Option<Vec<u8>> {
        self.shards.with_tree(tree, |t| t.and_then(|t| t.get(key).cloned()))
    }

    /// True if `key` exists in `tree`.
    pub fn contains(&self, tree: &str, key: &[u8]) -> bool {
        self.shards.with_tree(tree, |t| t.is_some_and(|t| t.contains_key(key)))
    }

    /// Visit every `(key, value)` whose key starts with `prefix`, in key
    /// order, without copying either. Return `false` from the visitor to
    /// stop early. The tree's shard stays read-locked for the duration,
    /// so the visitor must not call back into this store.
    pub fn for_each_prefix(
        &self,
        tree: &str,
        prefix: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) {
        self.shards.with_tree(tree, |t| {
            let Some(t) = t else { return };
            let range = t.range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded));
            for (k, v) in range {
                if !k.starts_with(prefix) || !f(k, v) {
                    break;
                }
            }
        });
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, in key
    /// order. Copies each pair; prefer [`Store::for_each_prefix`] on hot
    /// paths that immediately decode.
    pub fn scan_prefix(&self, tree: &str, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.for_each_prefix(tree, prefix, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        });
        out
    }

    /// All pairs in `tree`, in key order.
    pub fn scan_all(&self, tree: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.scan_prefix(tree, &[])
    }

    /// Number of keys in `tree` (0 for unknown trees).
    pub fn tree_len(&self, tree: &str) -> usize {
        self.shards.with_tree(tree, |t| t.map_or(0, BTreeMap::len))
    }

    /// Names of all trees that have ever been written, sorted.
    pub fn tree_names(&self) -> Vec<String> {
        self.shards.tree_names()
    }

    /// Block until everything appended so far is fsynced (no-op in
    /// memory). Joins the group committer like any other waiter.
    pub fn sync(&self) -> StorageResult<()> {
        let target = {
            let commit = self.commit.lock();
            if commit.wal.is_none() {
                return Ok(());
            }
            commit.ledger.appended_seq()
        };
        self.wait_durable(target)
    }

    /// Wait until `seq` is covered by a completed fsync, driving the
    /// group committer if the sync slot is free. At most one thread runs
    /// `sync_data` at a time; everyone else sleeps on the signal and is
    /// woken durable, which is exactly the fsync-coalescing that makes
    /// `Always` mode affordable under concurrency.
    fn wait_durable(&self, seq: u64) -> StorageResult<()> {
        loop {
            let observed = self.sync_signal.generation();
            let claim = {
                let mut guard = self.commit.lock();
                let commit = &mut *guard;
                if commit.ledger.is_durable(seq) {
                    return Ok(());
                }
                let Some(wal) = commit.wal.as_mut() else {
                    return Ok(());
                };
                match commit.ledger.try_begin_sync() {
                    Some(sync_to) => {
                        // Push buffered frames to the OS while still
                        // holding the lock (cheap), fsync off-lock.
                        // lint: allow(guard-io, "buffered flush under the commit lock keeps WAL order; the expensive sync_data runs off-lock below")
                        if let Err(e) = wal.flush() {
                            commit.ledger.finish_sync(sync_to, false);
                            return Err(e);
                        }
                        Some((sync_to, wal.sync_handle()))
                    }
                    None => None,
                }
            };
            match claim {
                Some((sync_to, file)) => {
                    let span = self.obs.fsync.maybe_start();
                    let synced = file.sync_data();
                    drop(span); // records fsync latency (off-lock)
                    let ok = synced.is_ok();
                    let depth = self.commit.lock().ledger.finish_sync(sync_to, ok);
                    if depth > 0 {
                        self.obs.group_depth.record(depth);
                    }
                    self.sync_signal.notify();
                    synced?;
                }
                None => self.sync_signal.wait_change(observed),
            }
        }
    }

    /// Write a full snapshot without blocking writers: the WAL is rotated
    /// to `WAL.old` and a consistent view cloned in a short critical
    /// section; encoding, writing and fsyncing the snapshot happen with
    /// no lock held. `WAL.old` is removed only after the snapshot rename,
    /// so a crash at any point recovers (recovery replays `WAL.old`
    /// before `WAL`; re-applying already-snapshotted batches is
    /// idempotent because puts and deletes set absolute per-key state).
    pub fn compact(&self) -> StorageResult<()> {
        let Some(dir) = self.dir.clone() else { return Ok(()) };
        let _compaction = self.compaction.lock();
        let wal_old = dir.join(WAL_OLD_FILE);
        // `WAL.old` still present means an earlier compaction failed after
        // rotating: don't rotate again (that would clobber it) — just
        // write a fresh snapshot covering memory and retire the old log.
        let resume = self.vfs.exists(&wal_old);

        let (covered_seq, view) = {
            let mut commit = self.commit.lock();
            if let Some(wal) = commit.wal.as_mut() {
                // lint: allow(guard-io, "rotation point: the log must be durable before rename, and no append may interleave with it")
                wal.sync()?;
            }
            commit.ledger.mark_all_durable();
            if !resume {
                commit.wal = None; // close the handle before renaming
                let renamed = self.vfs.rename(&dir.join(WAL_FILE), &wal_old);
                if renamed.is_ok() {
                    commit.log_index.rotate();
                }
                // Reopen before propagating: on rename failure this
                // reopens the same log and the store stays serviceable.
                commit.wal = Some(self.reopen_wal()?);
                renamed?;
                commit.wal_rotations += 1;
            }
            commit.ops_since_compaction = 0;
            // Cloned under the commit lock: no writer can interleave, so
            // the view is a consistent cut at a batch boundary, and the
            // ledger's sequence number names exactly that cut.
            (commit.ledger.appended_seq(), self.shards.snapshot())
        };

        let bytes = Self::encode_snapshot(covered_seq, &view);
        let tmp = dir.join("SNAPSHOT.tmp");
        {
            let f = self.vfs.create(&tmp)?;
            f.append(&bytes)?;
            // lint: allow(guard-io, "the compaction marker lock exists to serialize whole compactions, snapshot write included")
            f.sync_data()?;
        }
        self.vfs.rename(&tmp, &dir.join(SNAPSHOT_FILE))?;

        if self.vfs.exists(&wal_old) {
            self.vfs.remove_file(&wal_old)?;
        }
        self.commit.lock().log_index.old = None;
        Ok(())
    }

    /// Read the side file `name` from the store's directory: `None` when it
    /// does not exist, and always `None` for an in-memory store.
    ///
    /// Side files hold node-local state such as a signing key. They are not
    /// in any tree, so neither the WAL, snapshots, [`Store::export_snapshot`]
    /// nor replication ever carries them.
    pub fn read_local(&self, name: &str) -> StorageResult<Option<Vec<u8>>> {
        match &self.dir {
            Some(dir) => self.vfs.try_read(&dir.join(name)),
            None => Ok(None),
        }
    }

    /// Durably replace the side file `name` with `bytes`: write a temporary
    /// file, fsync it, and rename it over `name`, the sequence compaction
    /// uses for `SNAPSHOT`. A crash leaves the old file or the new one,
    /// never a torn one. An in-memory store has no directory and keeps
    /// nothing; its caller holds the bytes for the life of the process.
    ///
    /// `name` is a plain file name other than the store's own (`SNAPSHOT`,
    /// `WAL`, `WAL.old` and their `.tmp` files).
    pub fn write_local(&self, name: &str, bytes: &[u8]) -> StorageResult<()> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let tmp = dir.join(format!("{name}.tmp"));
        let f = self.vfs.create(&tmp)?;
        f.append(bytes)?;
        f.sync_data()?;
        self.vfs.rename(&tmp, &dir.join(name))
    }

    /// Current counters, snapshotted coherently: one commit-lock
    /// acquisition covers every write-side counter, so `batches_applied`
    /// can never disagree with `ops_since_compaction`.
    pub fn stats(&self) -> StoreStats {
        let commit = self.commit.lock();
        let (trees, keys) = self.shards.count();
        StoreStats {
            trees,
            keys,
            batches_applied: commit.batches_applied,
            ops_since_compaction: commit.ops_since_compaction,
            wal_bytes: commit.wal.as_ref().map_or(0, Wal::len_bytes),
            group_commits: commit.ledger.group_commits(),
            fsyncs_saved: commit.ledger.fsyncs_saved(),
            max_group_depth: commit.ledger.max_group_depth(),
            wal_rotations: commit.wal_rotations,
        }
    }

    fn apply_to_trees(trees: &mut BTreeMap<String, Tree>, batch: &WriteBatch) {
        for op in batch.ops() {
            match op {
                BatchOp::Put { tree, key, value } => {
                    trees.entry(tree.clone()).or_default().insert(key.clone(), value.clone());
                }
                BatchOp::Delete { tree, key } => {
                    if let Some(t) = trees.get_mut(tree) {
                        t.remove(key);
                    }
                }
            }
        }
    }

    fn encode_snapshot(covered_seq: u64, trees: &BTreeMap<String, Tree>) -> Vec<u8> {
        let mut w = Writer::with_capacity(4096);
        w.put_varint(covered_seq);
        w.put_varint(trees.len() as u64);
        for (name, tree) in trees {
            w.put_str(name);
            w.put_varint(tree.len() as u64);
            for (k, v) in tree {
                w.put_bytes(k);
                w.put_bytes(v);
            }
        }
        let body = w.finish();
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn load_snapshot(vfs: &dyn Vfs, path: &Path) -> StorageResult<(BTreeMap<String, Tree>, u64)> {
        let Some(raw) = vfs.try_read(path)? else {
            return Ok((BTreeMap::new(), 0));
        };
        Self::parse_snapshot(&raw)
    }

    /// Decode a snapshot image (compaction file or [`Store::export_snapshot`]
    /// bytes) into its trees and the commit sequence number it covers.
    /// Accepts the current format and the pre-replication `SREPSNP1` one,
    /// which carried no sequence number and so covers sequence 0.
    pub(crate) fn parse_snapshot(raw: &[u8]) -> StorageResult<(BTreeMap<String, Tree>, u64)> {
        let magic = raw.get(..8);
        let v2 = magic.is_some_and(|m| m == SNAPSHOT_MAGIC);
        let v1 = magic.is_some_and(|m| m == SNAPSHOT_MAGIC_V1);
        let crc_bytes: Option<[u8; 4]> = raw.get(8..12).and_then(|slice| slice.try_into().ok());
        let (Some(crc_bytes), Some(body), true) = (crc_bytes, raw.get(12..), v1 || v2) else {
            return Err(StorageError::Corrupt("snapshot header malformed".into()));
        };
        let crc = u32::from_le_bytes(crc_bytes);
        if crc32(body) != crc {
            return Err(StorageError::Corrupt("snapshot CRC mismatch".into()));
        }
        let mut r = Reader::new(body);
        let covered_seq = if v2 { r.get_varint()? } else { 0 };
        let tree_count = r.get_varint()? as usize;
        let mut trees = BTreeMap::new();
        for _ in 0..tree_count {
            let name = r.get_str()?;
            let entry_count = r.get_varint()? as usize;
            let mut tree = Tree::new();
            for _ in 0..entry_count {
                let k = r.get_bytes()?;
                let v = r.get_bytes()?;
                tree.insert(k, v);
            }
            trees.insert(name, tree);
        }
        r.expect_end()?;
        Ok((trees, covered_seq))
    }

    /// Split a WAL payload into its embedded commit sequence number and
    /// the batch it journals.
    fn decode_wal_entry(payload: &[u8]) -> StorageResult<(u64, WriteBatch)> {
        let seq = log_index::entry_seq(payload)?;
        let batch = WriteBatch::decode_from_bytes(payload.get(8..).unwrap_or_default())?;
        Ok((seq, batch))
    }

    /// Newest committed sequence number (0 before the first commit).
    pub fn committed_seq(&self) -> u64 {
        self.commit.lock().ledger.appended_seq()
    }

    /// Export a consistent snapshot of every tree as `(covered_seq,
    /// bytes)`, in the same format compaction writes. The cut is cloned
    /// under the commit lock (memory only); encoding runs off-lock. This
    /// is what the primary serves to a bootstrapping replica.
    pub fn export_snapshot(&self) -> (u64, Vec<u8>) {
        let (seq, view) = {
            let commit = self.commit.lock();
            (commit.ledger.appended_seq(), self.shards.snapshot())
        };
        (seq, Self::encode_snapshot(seq, &view))
    }

    /// A canonical dump of the user-visible contents: every tree except
    /// replication metadata (names starting `__repl`), encoded
    /// deterministically under one consistent cut. Two stores holding the
    /// same logical data yield byte-identical dumps — the property the
    /// replication differential tests assert.
    pub fn content_dump(&self) -> Vec<u8> {
        let mut view = {
            let _commit = self.commit.lock();
            self.shards.snapshot()
        };
        // Drop replication metadata and empty shells (a tree whose keys
        // were all deleted lingers in the shard map; it holds no data, so
        // it must not make two logically-equal stores compare unequal).
        view.retain(|name, tree| !name.starts_with("__repl") && !tree.is_empty());
        Self::encode_snapshot(0, &view)
    }

    /// Read committed WAL entries after `from_seq` for a replication
    /// subscriber. Returns [`ReplRead::Entries`] with a contiguous run
    /// starting at `from_seq + 1` (at most `max_entries` entries and
    /// `max_bytes` batch bytes, except that a first entry larger than
    /// `max_bytes` comes alone; `backlog_bytes` counts what remains), or
    /// [`ReplRead::SnapshotNeeded`] when compaction has already retired
    /// that suffix and the subscriber must bootstrap from a snapshot.
    ///
    /// Only frames the recovered-or-flushed log actually holds are served,
    /// so a primary that crashed and lost an unsynced suffix can never
    /// ship batches it no longer has — the replica instead observes the
    /// regressed `committed_seq` and resyncs.
    ///
    /// The read costs O(page), not O(log): the sparse sequence index
    /// ([`crate::log_index`]) names the byte offset to start from, and
    /// only the page's frames (plus fewer than 64 before it) are read and
    /// CRC-checked. `backlog_bytes` comes from the index's offsets.
    pub fn replication_read(
        &self,
        from_seq: u64,
        max_entries: usize,
        max_bytes: usize,
    ) -> StorageResult<ReplRead> {
        let Some(dir) = self.dir.as_ref() else {
            return Err(StorageError::Unsupported("replication reads need a WAL-backed store"));
        };
        // Hold the compaction lock across the whole read: rotation moves
        // frames between WAL and WAL.old, and retiring WAL.old would pull
        // a file out from under us mid-read.
        let _compaction = self.compaction.lock();
        let (committed_seq, cut) = {
            let mut commit = self.commit.lock();
            if let Some(wal) = commit.wal.as_mut() {
                // lint: allow(guard-io, "buffered flush only, so the file covers every committed frame; same commit-lock cost the Os durability path already pays")
                wal.flush()?;
            }
            (commit.ledger.appended_seq(), commit.log_index.cut(from_seq.saturating_add(1)))
        };
        if from_seq >= committed_seq {
            return Ok(ReplRead::Entries { entries: Vec::new(), committed_seq, backlog_bytes: 0 });
        }
        log_index::read_page(
            &*self.vfs,
            [&dir.join(WAL_OLD_FILE), &dir.join(WAL_FILE)],
            &cut,
            from_seq,
            max_entries.max(1),
            max_bytes,
            committed_seq,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("softrep-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// `compact` renames `WAL` to `WAL.old` and then reopens a fresh
    /// `WAL`. When that reopen fails, the next write must still reach a
    /// log before it is acknowledged.
    #[test]
    fn a_write_after_a_failed_rotation_reopen_is_journaled() {
        use crate::failpoint::{FailAction, Fault};
        use crate::vfs::SimVfs;
        let options = StoreOptions { durability: DurabilityMode::Always, shards: 4 };
        let dir = PathBuf::from("/sim/rotation-reopen");
        let vfs = Arc::new(SimVfs::new());
        let s = Store::open_with_vfs(&dir, options, vfs.clone()).unwrap();
        s.put("t", b"before".to_vec(), b"1".to_vec()).unwrap();
        vfs.failpoints().set("vfs.open", FailAction::Nth(Fault::Err, 1));
        assert!(s.compact().is_err(), "the reopen after the rename fails");
        assert_eq!(vfs.failpoints().trip_count("vfs.open"), 1);
        s.put("t", b"after".to_vec(), b"2".to_vec()).unwrap();
        s.sync().unwrap();
        drop(s);

        let s = Store::open_with_vfs(&dir, options, vfs).unwrap();
        assert_eq!(s.get("t", b"before").as_deref(), Some(&b"1"[..]));
        assert_eq!(s.get("t", b"after").as_deref(), Some(&b"2"[..]), "acknowledged, so durable");
    }

    /// With no log to reopen, a durable store refuses the write instead of
    /// applying it to memory alone.
    #[test]
    fn a_durable_store_with_no_log_refuses_writes() {
        use crate::failpoint::{FailAction, Fault};
        use crate::vfs::SimVfs;
        let options = StoreOptions { durability: DurabilityMode::Always, shards: 4 };
        let dir = PathBuf::from("/sim/no-log");
        let vfs = Arc::new(SimVfs::new());
        let s = Store::open_with_vfs(&dir, options, vfs.clone()).unwrap();
        vfs.failpoints().set("vfs.open", FailAction::Every(Fault::Err));
        assert!(s.compact().is_err());
        assert!(s.put("t", b"lost".to_vec(), b"1".to_vec()).is_err(), "never acknowledged");
        assert_eq!(s.get("t", b"lost"), None, "nor visible to readers");
        vfs.failpoints().clear_all();
        s.put("t", b"kept".to_vec(), b"2".to_vec()).unwrap();
        drop(s);

        let s = Store::open_with_vfs(&dir, options, vfs).unwrap();
        assert_eq!(s.get("t", b"lost"), None);
        assert_eq!(s.get("t", b"kept").as_deref(), Some(&b"2"[..]));
    }

    #[test]
    fn put_get_delete_in_memory() {
        let s = Store::in_memory();
        s.put("users", b"alice".to_vec(), b"record".to_vec()).unwrap();
        assert_eq!(s.get("users", b"alice").unwrap(), b"record");
        assert!(s.contains("users", b"alice"));
        s.delete("users", b"alice".to_vec()).unwrap();
        assert!(s.get("users", b"alice").is_none());
        assert!(!s.contains("users", b"alice"));
    }

    #[test]
    fn side_files_persist_outside_the_trees() {
        let dir = tmpdir("side-files");
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.read_local("KEY").unwrap(), None);
        s.put("t", b"k".to_vec(), b"v".to_vec()).unwrap();
        s.write_local("KEY", b"first").unwrap();
        s.write_local("KEY", b"second").unwrap();
        let (_, exported) = s.export_snapshot();
        s.compact().unwrap();
        drop(s);

        let s = Store::open(&dir).unwrap();
        assert_eq!(s.read_local("KEY").unwrap().as_deref(), Some(&b"second"[..]));
        assert!(!dir.join("KEY.tmp").exists(), "the temporary file was renamed away");
        let (trees, _) = Store::parse_snapshot(&exported).unwrap();
        assert_eq!(trees.keys().collect::<Vec<_>>(), ["t"], "only trees are exported");
        drop(s);
        let _ = fs::remove_dir_all(&dir);

        let mem = Store::in_memory();
        mem.write_local("KEY", b"kept by the caller").unwrap();
        assert_eq!(mem.read_local("KEY").unwrap(), None);
    }

    #[test]
    fn unknown_tree_reads_empty() {
        let s = Store::in_memory();
        assert!(s.get("nope", b"k").is_none());
        assert_eq!(s.tree_len("nope"), 0);
        assert!(s.scan_all("nope").is_empty());
    }

    #[test]
    fn scan_prefix_respects_order_and_bounds() {
        let s = Store::in_memory();
        for k in ["a1", "a2", "a3", "b1", "b2"] {
            s.put("t", k.as_bytes().to_vec(), k.as_bytes().to_vec()).unwrap();
        }
        let hits = s.scan_prefix("t", b"a");
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].0, b"a1");
        assert_eq!(hits[2].0, b"a3");
        assert_eq!(s.scan_prefix("t", b"b2").len(), 1);
        assert_eq!(s.scan_prefix("t", b"c").len(), 0);
        assert_eq!(s.scan_all("t").len(), 5);
    }

    #[test]
    fn for_each_prefix_borrows_and_stops_early() {
        let s = Store::in_memory();
        for k in ["a1", "a2", "a3", "b1"] {
            s.put("t", k.as_bytes().to_vec(), k.as_bytes().to_vec()).unwrap();
        }
        let mut seen = Vec::new();
        s.for_each_prefix("t", b"a", |k, v| {
            assert_eq!(k, v);
            seen.push(k.to_vec());
            seen.len() < 2 // stop after two
        });
        assert_eq!(seen, vec![b"a1".to_vec(), b"a2".to_vec()]);
        // Unknown tree: the visitor is simply never called.
        s.for_each_prefix("ghost", b"", |_, _| panic!("should not be called"));
    }

    #[test]
    fn batch_is_atomic_across_trees() {
        let s = Store::in_memory();
        let mut b = WriteBatch::new();
        b.put("votes", b"v1".to_vec(), b"10".to_vec());
        b.put("index", b"u1:v1".to_vec(), Vec::new());
        s.apply(&b).unwrap();
        assert!(s.contains("votes", b"v1"));
        assert!(s.contains("index", b"u1:v1"));
        assert_eq!(s.stats().batches_applied, 1);
    }

    #[test]
    fn durable_store_survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let s = Store::open(&dir).unwrap();
            s.put("software", b"abc".to_vec(), b"rating=7".to_vec()).unwrap();
            s.put("software", b"def".to_vec(), b"rating=3".to_vec()).unwrap();
            s.delete("software", b"def".to_vec()).unwrap();
            s.sync().unwrap();
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get("software", b"abc").unwrap(), b"rating=7");
        assert!(s.get("software", b"def").is_none());
        assert_eq!(s.tree_len("software"), 1);
    }

    #[test]
    fn compaction_preserves_data_and_truncates_wal() {
        let dir = tmpdir("compact");
        {
            let s = Store::open(&dir).unwrap();
            for i in 0..100u64 {
                s.put("t", i.to_be_bytes().to_vec(), vec![i as u8]).unwrap();
            }
            assert!(s.stats().wal_bytes > 0);
            s.compact().unwrap();
            assert_eq!(s.stats().wal_bytes, 0);
            assert_eq!(s.stats().ops_since_compaction, 0);
            assert_eq!(s.stats().wal_rotations, 1);
            assert!(!dir.join(WAL_OLD_FILE).exists(), "rotated log retired");
            // Post-compaction writes land in the fresh WAL.
            s.put("t", 200u64.to_be_bytes().to_vec(), vec![200u8.wrapping_add(0)]).unwrap();
            s.sync().unwrap();
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.tree_len("t"), 101);
        assert_eq!(s.get("t", &42u64.to_be_bytes()).unwrap(), vec![42]);
        assert_eq!(s.get("t", &200u64.to_be_bytes()).unwrap(), vec![200]);
    }

    #[test]
    fn writes_during_compaction_are_kept() {
        // Non-blocking compaction: a writer thread keeps appending while
        // compact() runs; nothing may be lost across a reopen.
        let dir = tmpdir("compact-live");
        let s = std::sync::Arc::new(Store::open(&dir).unwrap());
        for i in 0..500u64 {
            s.put("t", i.to_be_bytes().to_vec(), vec![7]).unwrap();
        }
        let writer = {
            let s = std::sync::Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 500..1000u64 {
                    s.put("t", i.to_be_bytes().to_vec(), vec![7]).unwrap();
                }
            })
        };
        s.compact().unwrap();
        writer.join().unwrap();
        s.sync().unwrap();
        assert_eq!(s.tree_len("t"), 1000);
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.tree_len("t"), 1000);
    }

    #[test]
    fn always_mode_group_commits_concurrent_writers() {
        let dir = tmpdir("always");
        let s = std::sync::Arc::new(
            Store::open_with(&dir, StoreOptions { durability: DurabilityMode::Always, shards: 16 })
                .unwrap(),
        );
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        s.put("t", (t * 1000 + i).to_be_bytes().to_vec(), vec![1]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let st = s.stats();
        assert_eq!(st.batches_applied, 100);
        assert!(st.group_commits >= 1);
        assert_eq!(
            st.group_commits + st.fsyncs_saved,
            100,
            "every batch either issued or rode an fsync"
        );
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.tree_len("t"), 100);
    }

    #[test]
    fn batched_mode_syncs_on_byte_threshold() {
        let dir = tmpdir("batched");
        let s = Store::open_with(
            &dir,
            StoreOptions { durability: DurabilityMode::Batched { every_bytes: 256 }, shards: 4 },
        )
        .unwrap();
        for i in 0..50u64 {
            s.put("t", i.to_be_bytes().to_vec(), vec![0u8; 32]).unwrap();
        }
        let st = s.stats();
        assert!(st.group_commits >= 1, "threshold crossings must have forced fsyncs");
        assert!(st.group_commits < 50, "but far fewer than one per batch");
    }

    #[test]
    fn snapshot_crc_detects_corruption() {
        let dir = tmpdir("snapcrc");
        {
            let s = Store::open(&dir).unwrap();
            s.put("t", b"k".to_vec(), b"v".to_vec()).unwrap();
            s.compact().unwrap();
        }
        // Flip a byte in the snapshot body.
        let snap = dir.join(SNAPSHOT_FILE);
        let mut raw = fs::read(&snap).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        fs::write(&snap, &raw).unwrap();
        assert!(matches!(Store::open(&dir), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn reopen_after_torn_wal_drops_only_torn_batch() {
        let dir = tmpdir("tornwal");
        {
            let s = Store::open(&dir).unwrap();
            s.put("t", b"safe".to_vec(), b"1".to_vec()).unwrap();
            s.put("t", b"torn".to_vec(), b"2".to_vec()).unwrap();
            s.sync().unwrap();
        }
        let wal_path = dir.join(WAL_FILE);
        let raw = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &raw[..raw.len() - 1]).unwrap();

        let s = Store::open(&dir).unwrap();
        assert!(s.contains("t", b"safe"));
        assert!(!s.contains("t", b"torn"));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let s = Store::in_memory();
        s.apply(&WriteBatch::new()).unwrap();
        assert_eq!(s.stats().batches_applied, 0);
    }

    #[test]
    fn stats_count_keys_and_trees() {
        let s = Store::in_memory();
        s.put("a", b"1".to_vec(), b"x".to_vec()).unwrap();
        s.put("a", b"2".to_vec(), b"x".to_vec()).unwrap();
        s.put("b", b"1".to_vec(), b"x".to_vec()).unwrap();
        let st = s.stats();
        assert_eq!(st.trees, 2);
        assert_eq!(st.keys, 3);
        assert_eq!(s.tree_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn overwrite_replaces_value() {
        let s = Store::in_memory();
        s.put("t", b"k".to_vec(), b"old".to_vec()).unwrap();
        s.put("t", b"k".to_vec(), b"new".to_vec()).unwrap();
        assert_eq!(s.get("t", b"k").unwrap(), b"new");
        assert_eq!(s.tree_len("t"), 1);
    }

    #[test]
    fn single_shard_store_behaves_identically() {
        let s = Store::in_memory_with(StoreOptions { shards: 1, ..StoreOptions::default() });
        let mut b = WriteBatch::new();
        b.put("x", b"1".to_vec(), b"a".to_vec());
        b.put("y", b"2".to_vec(), b"b".to_vec());
        s.apply(&b).unwrap();
        assert_eq!(s.stats().trees, 2);
        assert_eq!(s.get("y", b"2").unwrap(), b"b");
    }
}
