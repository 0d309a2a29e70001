//! Virtual filesystem abstraction over every durable effect the storage
//! engine performs.
//!
//! The WAL and store never touch `std::fs` directly; they go through a
//! [`Vfs`] handle. Production uses [`RealVfs`], a transparent passthrough
//! whose only extra cost is one relaxed atomic load per operation (the
//! global failpoint arm check — see [`crate::failpoint`]). Tests use
//! [`SimVfs`], an in-memory filesystem that models the visible/durable
//! split a real disk has: appends and writes land in the *visible* image
//! immediately, but only an `fsync` (or a metadata operation — rename,
//! remove) advances the *durable* image a crash would leave behind.
//!
//! `SimVfs` also records every operation in an event log. Because the
//! durable image is a pure function of that log, a crash-schedule
//! explorer can run a workload **once**, then reconstruct the exact
//! durable state at every crash point offline ([`durable_image_at`]) —
//! including torn variants where a prefix of the unsynced delta survived
//! — and recover each image with the production `Store::open` path.
//!
//! # Failpoint site catalogue
//!
//! Every operation evaluates one named failpoint before acting (DESIGN.md
//! §13 documents the full matrix):
//!
//! | site           | operation                         | `torn` meaning            |
//! |----------------|-----------------------------------|---------------------------|
//! | `vfs.open`     | open-or-create for append         | —                         |
//! | `vfs.create`   | create/truncate a file            | —                         |
//! | `vfs.read`     | whole-file and ranged reads       | —                         |
//! | `vfs.write`    | whole-file replace                | prefix persists, then EIO |
//! | `vfs.append`   | append to an open handle          | prefix persists, then EIO |
//! | `vfs.sync`     | `sync_data` on an open handle     | short fsync: half the pending delta becomes durable, then EIO |
//! | `vfs.set_len`  | truncate/extend an open handle    | —                         |
//! | `vfs.rename`   | atomic rename                     | —                         |
//! | `vfs.remove`   | unlink                            | —                         |
//! | `vfs.create_dir` | `create_dir_all`                | —                         |
//!
//! On `RealVfs` a `torn` action degrades to a plain error — only the
//! simulator can tear deterministically.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::failpoint::{self, Failpoints, Fault};

/// An open file handle, shared between the WAL owner and the off-lock
/// group committer (which only calls [`VfsFile::sync_data`]).
pub trait VfsFile: Send + Sync {
    /// Append `data` at the end of the file.
    fn append(&self, data: &[u8]) -> StorageResult<()>;
    /// Flush file *data* to the device (fsync without metadata).
    fn sync_data(&self) -> StorageResult<()>;
    /// Truncate (or zero-extend) to exactly `len` bytes.
    fn set_len(&self, len: u64) -> StorageResult<()>;
}

/// The filesystem surface the storage engine needs — nothing more.
pub trait Vfs: Send + Sync {
    /// Open `path` for appending, creating it when absent.
    fn open_append(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>>;
    /// Create (truncating when present) `path` for writing.
    fn create(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>>;
    /// Read the whole file, or `None` when it does not exist.
    fn try_read(&self, path: &Path) -> StorageResult<Option<Vec<u8>>>;
    /// Read exactly `len` bytes of `path` starting at byte `offset`; a
    /// range that runs past the end of the file is an error.
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> StorageResult<Vec<u8>>;
    /// Replace the contents of `path` with `data` (no implicit fsync).
    fn write(&self, path: &Path, data: &[u8]) -> StorageResult<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> StorageResult<()>;
    /// Unlink `path`.
    fn remove_file(&self, path: &Path) -> StorageResult<()>;
    /// True when `path` currently exists.
    fn exists(&self, path: &Path) -> bool;
    /// Create `path` and its parents as directories.
    fn create_dir_all(&self, path: &Path) -> StorageResult<()>;
}

/// The injected-EIO error every fired failpoint surfaces as. Always a
/// typed [`StorageError::Io`] — a fault injection must never panic.
fn injected(site: &str, path: &Path) -> StorageError {
    StorageError::Io(std::io::Error::other(format!(
        "injected failpoint {site} at {}",
        path.display()
    )))
}

// ---------------------------------------------------------------------
// RealVfs: the production passthrough.
// ---------------------------------------------------------------------

/// Passthrough to `std::fs`. Constructing one arms any failpoints from
/// `SOFTREP_FAILPOINTS`; with nothing armed, every operation pays one
/// relaxed atomic load over the raw syscall.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl RealVfs {
    /// A new handle (also loads `SOFTREP_FAILPOINTS` once per process).
    pub fn new() -> Self {
        failpoint::init_from_env();
        RealVfs
    }
}

/// The shared production VFS handle used by every default-constructed
/// store, so the `Arc` bump is the only per-store cost.
pub fn real() -> Arc<dyn Vfs> {
    static SHARED: OnceLock<Arc<RealVfs>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(RealVfs::new()))) as Arc<dyn Vfs>
}

/// Evaluate a global failpoint for a real-filesystem operation. `torn`
/// degrades to a plain error here: the real kernel cannot tear on cue.
fn real_fail(site: &str, path: &Path) -> StorageResult<()> {
    match failpoint::global_evaluate(site, path.to_string_lossy().as_ref()) {
        Some(_) => Err(injected(site, path)),
        None => Ok(()),
    }
}

struct RealFile {
    path: PathBuf,
    file: File,
}

impl VfsFile for RealFile {
    fn append(&self, data: &[u8]) -> StorageResult<()> {
        real_fail("vfs.append", &self.path)?;
        (&self.file).write_all(data)?;
        Ok(())
    }

    fn sync_data(&self) -> StorageResult<()> {
        real_fail("vfs.sync", &self.path)?;
        self.file.sync_data()?;
        Ok(())
    }

    fn set_len(&self, len: u64) -> StorageResult<()> {
        real_fail("vfs.set_len", &self.path)?;
        self.file.set_len(len)?;
        Ok(())
    }
}

impl Vfs for RealVfs {
    fn open_append(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        real_fail("vfs.open", path)?;
        let file = OpenOptions::new().create(true).append(true).read(true).open(path)?;
        Ok(Arc::new(RealFile { path: path.to_path_buf(), file }))
    }

    fn create(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        real_fail("vfs.create", path)?;
        let file = File::create(path)?;
        Ok(Arc::new(RealFile { path: path.to_path_buf(), file }))
    }

    fn try_read(&self, path: &Path) -> StorageResult<Option<Vec<u8>>> {
        real_fail("vfs.read", path)?;
        match std::fs::read(path) {
            Ok(raw) => Ok(Some(raw)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        real_fail("vfs.read", path)?;
        let file = File::open(path)?;
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(&file, &mut buf, offset)?;
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = &file;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut buf)?;
        }
        Ok(buf)
    }

    fn write(&self, path: &Path, data: &[u8]) -> StorageResult<()> {
        real_fail("vfs.write", path)?;
        std::fs::write(path, data)?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> StorageResult<()> {
        real_fail("vfs.rename", from)?;
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> StorageResult<()> {
        real_fail("vfs.remove", path)?;
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, path: &Path) -> StorageResult<()> {
        real_fail("vfs.create_dir", path)?;
        std::fs::create_dir_all(path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SimVfs: the deterministic in-memory filesystem.
// ---------------------------------------------------------------------

/// One recorded operation. The event log is the ground truth the crash
/// explorer replays; events that advance the durable image are *durable
/// sites* ([`VfsEvent::is_durable_site`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsEvent {
    /// `open_append` created a file that did not exist.
    Open {
        /// The created path.
        path: PathBuf,
    },
    /// `create` truncated-or-created a file.
    Create {
        /// The created path.
        path: PathBuf,
    },
    /// Bytes appended to the visible image (possibly a torn prefix of a
    /// larger request).
    Append {
        /// The appended path.
        path: PathBuf,
        /// Exactly the bytes that landed.
        data: Vec<u8>,
    },
    /// Visible truncation/extension to `len`.
    SetLen {
        /// The resized path.
        path: PathBuf,
        /// The new visible length.
        len: u64,
    },
    /// Whole-file replace of the visible image.
    WriteFile {
        /// The replaced path.
        path: PathBuf,
        /// The new contents (possibly a torn prefix).
        data: Vec<u8>,
    },
    /// Durable site: fsync promoted the whole visible image.
    Sync {
        /// The synced path.
        path: PathBuf,
    },
    /// Durable site: a short fsync promoted only the first `up_to` bytes
    /// of the visible image.
    SyncPartial {
        /// The synced path.
        path: PathBuf,
        /// Durable length after the short fsync.
        up_to: u64,
    },
    /// Durable site: atomic rename.
    Rename {
        /// Source path.
        from: PathBuf,
        /// Destination path.
        to: PathBuf,
    },
    /// Durable site: unlink.
    Remove {
        /// The removed path.
        path: PathBuf,
    },
}

impl VfsEvent {
    /// True for events that change what a crash would leave on disk.
    pub fn is_durable_site(&self) -> bool {
        matches!(
            self,
            VfsEvent::Sync { .. }
                | VfsEvent::SyncPartial { .. }
                | VfsEvent::Rename { .. }
                | VfsEvent::Remove { .. }
        )
    }

    /// Short human label for failure reports ("sync WAL", "rename WAL").
    pub fn label(&self) -> String {
        fn name(p: &Path) -> String {
            p.file_name().map_or_else(|| p.display().to_string(), |n| n.to_string_lossy().into())
        }
        match self {
            VfsEvent::Open { path } => format!("open {}", name(path)),
            VfsEvent::Create { path } => format!("create {}", name(path)),
            VfsEvent::Append { path, data } => format!("append {}B to {}", data.len(), name(path)),
            VfsEvent::SetLen { path, len } => format!("set_len {} to {len}", name(path)),
            VfsEvent::WriteFile { path, data } => {
                format!("write {}B to {}", data.len(), name(path))
            }
            VfsEvent::Sync { path } => format!("sync {}", name(path)),
            VfsEvent::SyncPartial { path, up_to } => {
                format!("short-sync {} to {up_to}B", name(path))
            }
            VfsEvent::Rename { from, to } => format!("rename {} -> {}", name(from), name(to)),
            VfsEvent::Remove { path } => format!("remove {}", name(path)),
        }
    }
}

/// Which residue a simulated crash leaves for the unsynced delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// Only explicitly-durable bytes survive — the most pessimistic disk.
    DurableOnly,
    /// Half of every file's unsynced suffix also survives: a torn append
    /// caught mid-writeback.
    TornHalf,
    /// The whole visible image survives: the kernel wrote everything back
    /// just before power failed.
    AllPending,
}

#[derive(Debug, Default)]
struct SimState {
    /// What every open handle and read sees right now.
    visible: BTreeMap<PathBuf, Vec<u8>>,
    /// What a crash at this instant would leave on disk.
    durable: BTreeMap<PathBuf, Vec<u8>>,
    /// Every operation, in order.
    log: Vec<VfsEvent>,
    /// Count of durable sites in `log` (kept in lockstep).
    durable_sites: usize,
}

impl SimState {
    fn record(&mut self, event: VfsEvent) {
        if event.is_durable_site() {
            self.durable_sites += 1;
        }
        self.log.push(event);
    }
}

/// Deterministic in-memory filesystem with a visible/durable split, an
/// event log, and an instance-local failpoint registry. Clones share the
/// same underlying state, so a test can keep a handle while the store
/// owns another.
///
/// Handles are path-keyed: the simulator assumes single-threaded
/// workloads where no handle outlives a rename of its file (the store's
/// compaction closes the WAL handle before rotating, so the engine's own
/// sequential use is safe).
#[derive(Debug, Clone, Default)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
    failpoints: Arc<Failpoints>,
}

impl SimVfs {
    /// A fresh, empty simulated filesystem.
    pub fn new() -> Self {
        SimVfs::default()
    }

    /// The instance-local failpoint registry driving fault injection.
    pub fn failpoints(&self) -> &Failpoints {
        &self.failpoints
    }

    /// A copy of the full event log so far.
    pub fn event_log(&self) -> Vec<VfsEvent> {
        self.state.lock().log.clone()
    }

    /// How many durable-effect sites the log holds so far.
    pub fn durable_site_count(&self) -> usize {
        self.state.lock().durable_sites
    }

    /// What a crash right now would leave on disk.
    pub fn durable_image(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.state.lock().durable.clone()
    }

    /// The live (page-cache) view of every file.
    pub fn visible_image(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.state.lock().visible.clone()
    }

    fn fail(&self, site: &str, path: &Path) -> Option<Fault> {
        self.failpoints.evaluate(site, path.to_string_lossy().as_ref())
    }
}

/// Reconstruct the durable image after `sites` durable sites have
/// completed and the crash hits before the next one, replaying the
/// recorded `log` from scratch. `style` decides how much of the unsynced
/// delta accumulated since the last durable site also survives. Passing
/// `sites >=` the log's total durable-site count reproduces the final
/// image.
pub fn durable_image_at(
    log: &[VfsEvent],
    sites: usize,
    style: CrashStyle,
) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut visible: BTreeMap<PathBuf, Vec<u8>> = BTreeMap::new();
    let mut durable: BTreeMap<PathBuf, Vec<u8>> = BTreeMap::new();
    let mut applied = 0usize;
    for event in log {
        if event.is_durable_site() {
            if applied == sites {
                break;
            }
            applied += 1;
        }
        match event {
            VfsEvent::Open { path } | VfsEvent::Create { path } => {
                visible.entry(path.clone()).or_default();
                if matches!(event, VfsEvent::Create { .. }) {
                    if let Some(content) = visible.get_mut(path) {
                        content.clear();
                    }
                }
            }
            VfsEvent::Append { path, data } => {
                visible.entry(path.clone()).or_default().extend_from_slice(data);
            }
            VfsEvent::SetLen { path, len } => {
                let content = visible.entry(path.clone()).or_default();
                content.resize(*len as usize, 0);
            }
            VfsEvent::WriteFile { path, data } => {
                visible.insert(path.clone(), data.clone());
            }
            VfsEvent::Sync { path } => {
                let content = visible.get(path).cloned().unwrap_or_default();
                durable.insert(path.clone(), content);
            }
            VfsEvent::SyncPartial { path, up_to } => {
                let content = visible.get(path).cloned().unwrap_or_default();
                let keep = (*up_to as usize).min(content.len());
                durable.insert(
                    path.clone(),
                    content.get(..keep).unwrap_or(content.as_slice()).to_vec(),
                );
            }
            VfsEvent::Rename { from, to } => {
                if let Some(content) = visible.remove(from) {
                    visible.insert(to.clone(), content);
                }
                match durable.remove(from) {
                    Some(content) => {
                        durable.insert(to.clone(), content);
                    }
                    // Renaming a never-synced file: the target's old inode
                    // is gone and the new data was never written back.
                    None => {
                        durable.remove(to);
                    }
                }
            }
            VfsEvent::Remove { path } => {
                visible.remove(path);
                durable.remove(path);
            }
        }
    }
    match style {
        CrashStyle::DurableOnly => durable,
        CrashStyle::AllPending => visible,
        CrashStyle::TornHalf => {
            let mut out = durable;
            for (path, content) in &visible {
                let base_len = out.get(path).map_or(0, Vec::len);
                let base_matches = out.get(path).is_none_or(|base| content.starts_with(base));
                if base_matches && content.len() > base_len {
                    // Half of the unsynced suffix hit the platter.
                    let keep = base_len + (content.len() - base_len) / 2;
                    out.insert(
                        path.clone(),
                        content.get(..keep).unwrap_or(content.as_slice()).to_vec(),
                    );
                }
            }
            out
        }
    }
}

struct SimFile {
    path: PathBuf,
    state: Arc<Mutex<SimState>>,
    failpoints: Arc<Failpoints>,
}

impl SimFile {
    fn fail(&self, site: &str) -> Option<Fault> {
        self.failpoints.evaluate(site, self.path.to_string_lossy().as_ref())
    }
}

impl VfsFile for SimFile {
    fn append(&self, data: &[u8]) -> StorageResult<()> {
        let fault = self.fail("vfs.append");
        let mut state = self.state.lock();
        match fault {
            None => {
                state.visible.entry(self.path.clone()).or_default().extend_from_slice(data);
                state.record(VfsEvent::Append { path: self.path.clone(), data: data.to_vec() });
                Ok(())
            }
            Some(Fault::Torn) => {
                // A prefix of the write lands before the error surfaces.
                let torn = data.get(..data.len() / 2).unwrap_or(data);
                state.visible.entry(self.path.clone()).or_default().extend_from_slice(torn);
                state.record(VfsEvent::Append { path: self.path.clone(), data: torn.to_vec() });
                Err(injected("vfs.append", &self.path))
            }
            Some(Fault::Err) => Err(injected("vfs.append", &self.path)),
        }
    }

    fn sync_data(&self) -> StorageResult<()> {
        let fault = self.fail("vfs.sync");
        let mut state = self.state.lock();
        let content = state.visible.get(&self.path).cloned().unwrap_or_default();
        match fault {
            None => {
                state.durable.insert(self.path.clone(), content);
                state.record(VfsEvent::Sync { path: self.path.clone() });
                Ok(())
            }
            Some(Fault::Torn) => {
                // Short fsync: half the pending delta becomes durable,
                // then the call errors. Only meaningful when the visible
                // image extends the durable one; otherwise degrade to a
                // plain failure with no durable change.
                let base_len = state.durable.get(&self.path).map_or(0, Vec::len);
                let extends =
                    state.durable.get(&self.path).is_none_or(|base| content.starts_with(base));
                if extends && content.len() > base_len {
                    let keep = base_len + (content.len() - base_len) / 2;
                    let partial = content.get(..keep).unwrap_or(content.as_slice()).to_vec();
                    state.durable.insert(self.path.clone(), partial);
                    state.record(VfsEvent::SyncPartial {
                        path: self.path.clone(),
                        up_to: keep as u64,
                    });
                }
                Err(injected("vfs.sync", &self.path))
            }
            Some(Fault::Err) => Err(injected("vfs.sync", &self.path)),
        }
    }

    fn set_len(&self, len: u64) -> StorageResult<()> {
        if self.fail("vfs.set_len").is_some() {
            return Err(injected("vfs.set_len", &self.path));
        }
        let mut state = self.state.lock();
        state.visible.entry(self.path.clone()).or_default().resize(len as usize, 0);
        state.record(VfsEvent::SetLen { path: self.path.clone(), len });
        Ok(())
    }
}

impl Vfs for SimVfs {
    fn open_append(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        if self.fail("vfs.open", path).is_some() {
            return Err(injected("vfs.open", path));
        }
        let mut state = self.state.lock();
        if !state.visible.contains_key(path) {
            state.visible.insert(path.to_path_buf(), Vec::new());
            state.record(VfsEvent::Open { path: path.to_path_buf() });
        }
        Ok(Arc::new(SimFile {
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
            failpoints: Arc::clone(&self.failpoints),
        }))
    }

    fn create(&self, path: &Path) -> StorageResult<Arc<dyn VfsFile>> {
        if self.fail("vfs.create", path).is_some() {
            return Err(injected("vfs.create", path));
        }
        let mut state = self.state.lock();
        state.visible.insert(path.to_path_buf(), Vec::new());
        state.record(VfsEvent::Create { path: path.to_path_buf() });
        Ok(Arc::new(SimFile {
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
            failpoints: Arc::clone(&self.failpoints),
        }))
    }

    fn try_read(&self, path: &Path) -> StorageResult<Option<Vec<u8>>> {
        if self.fail("vfs.read", path).is_some() {
            return Err(injected("vfs.read", path));
        }
        Ok(self.state.lock().visible.get(path).cloned())
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        if self.fail("vfs.read", path).is_some() {
            return Err(injected("vfs.read", path));
        }
        let state = self.state.lock();
        let range = usize::try_from(offset)
            .ok()
            .and_then(|start| Some(start..start.checked_add(len)?))
            .and_then(|range| state.visible.get(path)?.get(range));
        match range {
            Some(bytes) => Ok(bytes.to_vec()),
            None => Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("sim read of {len}B at {offset} past the end of {}", path.display()),
            ))),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> StorageResult<()> {
        let fault = self.fail("vfs.write", path);
        let mut state = self.state.lock();
        match fault {
            None => {
                state.visible.insert(path.to_path_buf(), data.to_vec());
                state.record(VfsEvent::WriteFile { path: path.to_path_buf(), data: data.to_vec() });
                Ok(())
            }
            Some(Fault::Torn) => {
                let torn = data.get(..data.len() / 2).unwrap_or(data);
                state.visible.insert(path.to_path_buf(), torn.to_vec());
                state.record(VfsEvent::WriteFile { path: path.to_path_buf(), data: torn.to_vec() });
                Err(injected("vfs.write", path))
            }
            Some(Fault::Err) => Err(injected("vfs.write", path)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> StorageResult<()> {
        if self.fail("vfs.rename", from).is_some() {
            // An interrupted rename leaves the source in place — the
            // crash variants before/after the rename site cover the two
            // serialized outcomes an atomic rename can have.
            return Err(injected("vfs.rename", from));
        }
        let mut state = self.state.lock();
        let Some(content) = state.visible.remove(from) else {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("sim rename source missing: {}", from.display()),
            )));
        };
        state.visible.insert(to.to_path_buf(), content);
        match state.durable.remove(from) {
            Some(content) => {
                state.durable.insert(to.to_path_buf(), content);
            }
            None => {
                state.durable.remove(to);
            }
        }
        state.record(VfsEvent::Rename { from: from.to_path_buf(), to: to.to_path_buf() });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> StorageResult<()> {
        if self.fail("vfs.remove", path).is_some() {
            return Err(injected("vfs.remove", path));
        }
        let mut state = self.state.lock();
        if state.visible.remove(path).is_none() {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("sim remove of missing file: {}", path.display()),
            )));
        }
        state.durable.remove(path);
        state.record(VfsEvent::Remove { path: path.to_path_buf() });
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().visible.contains_key(path)
    }

    fn create_dir_all(&self, path: &Path) -> StorageResult<()> {
        if self.fail("vfs.create_dir", path).is_some() {
            return Err(injected("vfs.create_dir", path));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FailAction;

    fn p(name: &str) -> PathBuf {
        PathBuf::from("/sim").join(name)
    }

    #[test]
    fn appends_are_visible_but_not_durable_until_sync() {
        let vfs = SimVfs::new();
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"hello").unwrap();
        assert_eq!(vfs.visible_image().get(&p("WAL")).unwrap(), b"hello");
        assert!(!vfs.durable_image().contains_key(&p("WAL")), "no fsync yet");
        f.sync_data().unwrap();
        assert_eq!(vfs.durable_image().get(&p("WAL")).unwrap(), b"hello");
        assert_eq!(vfs.durable_site_count(), 1);
    }

    #[test]
    fn rename_and_remove_are_durable_sites() {
        let vfs = SimVfs::new();
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"x").unwrap();
        f.sync_data().unwrap();
        vfs.rename(&p("WAL"), &p("WAL.old")).unwrap();
        assert_eq!(vfs.durable_image().get(&p("WAL.old")).unwrap(), b"x");
        vfs.remove_file(&p("WAL.old")).unwrap();
        assert!(vfs.durable_image().is_empty());
        assert_eq!(vfs.durable_site_count(), 3);
    }

    #[test]
    fn renaming_an_unsynced_file_drops_the_durable_target() {
        let vfs = SimVfs::new();
        vfs.write(&p("SNAPSHOT"), b"old").unwrap();
        let f = vfs.create(&p("SNAPSHOT")).unwrap();
        f.append(b"old-durable").unwrap();
        f.sync_data().unwrap();
        // New snapshot written but never synced, then renamed over.
        vfs.write(&p("SNAPSHOT.tmp"), b"new").unwrap();
        vfs.rename(&p("SNAPSHOT.tmp"), &p("SNAPSHOT")).unwrap();
        assert_eq!(vfs.visible_image().get(&p("SNAPSHOT")).unwrap(), b"new");
        assert!(
            !vfs.durable_image().contains_key(&p("SNAPSHOT")),
            "unsynced rename must not keep the old durable inode"
        );
    }

    #[test]
    fn reconstruction_matches_live_durable_image_at_every_site() {
        let vfs = SimVfs::new();
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"one").unwrap();
        f.sync_data().unwrap();
        f.append(b"two").unwrap();
        f.sync_data().unwrap();
        vfs.rename(&p("WAL"), &p("WAL.old")).unwrap();
        vfs.write(&p("SNAPSHOT"), b"snap").unwrap();
        let snap = vfs.open_append(&p("SNAPSHOT")).unwrap();
        snap.sync_data().unwrap();
        vfs.remove_file(&p("WAL.old")).unwrap();

        let log = vfs.event_log();
        let total = vfs.durable_site_count();
        assert_eq!(total, 5);
        // Reconstructing at the final site count equals the live image.
        assert_eq!(durable_image_at(&log, total, CrashStyle::DurableOnly), vfs.durable_image());
        // At site 1, only the first append is durable.
        let at1 = durable_image_at(&log, 1, CrashStyle::DurableOnly);
        assert_eq!(at1.get(&p("WAL")).unwrap(), b"one");
        // At site 0 with AllPending, the first append is pending residue.
        let at0 = durable_image_at(&log, 0, CrashStyle::AllPending);
        assert_eq!(at0.get(&p("WAL")).unwrap(), b"one");
        assert!(durable_image_at(&log, 0, CrashStyle::DurableOnly).is_empty());
    }

    #[test]
    fn torn_half_grafts_half_of_the_unsynced_suffix() {
        let vfs = SimVfs::new();
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"base").unwrap();
        f.sync_data().unwrap();
        f.append(b"ABCDEFGH").unwrap(); // 8 pending bytes, never synced
        let log = vfs.event_log();
        let torn = durable_image_at(&log, 1, CrashStyle::TornHalf);
        assert_eq!(torn.get(&p("WAL")).unwrap(), b"baseABCD");
    }

    #[test]
    fn injected_sync_error_leaves_durable_image_unchanged() {
        let vfs = SimVfs::new();
        vfs.failpoints().set("vfs.sync", FailAction::Every(Fault::Err));
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"data").unwrap();
        let err = f.sync_data().unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "typed Io error, got {err:?}");
        assert!(vfs.durable_image().is_empty());
        // Clearing the point lets a retry succeed — fsync failure is not
        // sticky at the VFS layer.
        vfs.failpoints().clear("vfs.sync");
        f.sync_data().unwrap();
        assert_eq!(vfs.durable_image().get(&p("WAL")).unwrap(), b"data");
    }

    #[test]
    fn torn_append_persists_a_prefix_and_errors() {
        let vfs = SimVfs::new();
        vfs.failpoints().set("vfs.append", FailAction::Nth(Fault::Torn, 2));
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"good").unwrap();
        let err = f.append(b"12345678").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(vfs.visible_image().get(&p("WAL")).unwrap(), b"good1234");
    }

    #[test]
    fn short_fsync_promotes_half_the_delta_then_errors() {
        let vfs = SimVfs::new();
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"base").unwrap();
        f.sync_data().unwrap();
        vfs.failpoints().set("vfs.sync", FailAction::Every(Fault::Torn));
        f.append(b"ABCDEFGH").unwrap();
        assert!(f.sync_data().is_err());
        assert_eq!(vfs.durable_image().get(&p("WAL")).unwrap(), b"baseABCD");
        assert_eq!(vfs.durable_site_count(), 2, "a short fsync is still a durable site");
    }

    #[test]
    fn ranged_reads_slice_the_visible_image_behind_the_read_failpoint() {
        let vfs = SimVfs::new();
        let f = vfs.open_append(&p("WAL")).unwrap();
        f.append(b"0123456789").unwrap();
        assert_eq!(vfs.read_range(&p("WAL"), 3, 4).unwrap(), b"3456");
        assert_eq!(vfs.read_range(&p("WAL"), 10, 0).unwrap(), b"");
        assert!(vfs.read_range(&p("WAL"), 8, 3).is_err(), "a range past the end");
        assert!(vfs.read_range(&p("missing"), 0, 1).is_err());
        vfs.failpoints().set("vfs.read", FailAction::Nth(Fault::Err, 1));
        assert!(matches!(vfs.read_range(&p("WAL"), 0, 1), Err(StorageError::Io(_))));
        assert_eq!(vfs.read_range(&p("WAL"), 0, 1).unwrap(), b"0");
    }

    #[test]
    fn real_ranged_reads_match_the_file() {
        let dir = std::env::temp_dir().join(format!("softrep-vfs-range-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("WAL");
        std::fs::write(&path, b"0123456789").unwrap();
        let vfs = RealVfs::new();
        assert_eq!(vfs.read_range(&path, 3, 4).unwrap(), b"3456");
        assert!(vfs.read_range(&path, 8, 3).is_err(), "a range past the end");
        assert!(vfs.read_range(&dir.join("missing"), 0, 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failpoints_are_instance_local() {
        let a = SimVfs::new();
        let b = SimVfs::new();
        a.failpoints().set("vfs.open", FailAction::Every(Fault::Err));
        assert!(a.open_append(&p("WAL")).is_err());
        assert!(b.open_append(&p("WAL")).is_ok(), "b's registry is untouched");
    }
}
