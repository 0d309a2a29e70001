//! Scope-guard temporary directory for integration tests.
//!
//! The old per-test `tempdir()` helpers leaked their directory on success
//! (cleanup relied on a `remove_dir_all` at the end of each test, skipped
//! whenever an assert fired first — and also whenever the test simply
//! returned early). This guard inverts that: the directory is removed on
//! drop **unless the test is panicking**, so passing runs leave nothing
//! behind while failures keep their store directory for post-mortem.

#![allow(
    dead_code,
    reason = "shared by several test binaries; each uses a different slice of the API"
)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A uniquely-named directory under the system temp root, removed on drop
/// when the owning test passes.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `softrep-it-<tag>-<pid>-<n>` (the counter keeps concurrent
    /// tests in one binary from colliding on a shared tag).
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("softrep-it-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Keep the evidence; the path is deterministic enough to find.
            eprintln!("test failed; keeping {} for inspection", self.path.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}
