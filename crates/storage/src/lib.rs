#![warn(missing_docs)]

//! Embedded storage engine for the softwareputation reputation server.
//!
//! The paper's server keeps "a database containing registered user
//! information, ratings and comments" (§3.2). The original proof-of-concept
//! used an off-the-shelf RDBMS; per the reproduction's substitution rule we
//! build the substrate ourselves. The engine is a small, durable,
//! log-structured store:
//!
//! * [`codec`] — a compact binary record codec (varints, zig-zag, length
//!   prefixes) used for every persisted value.
//! * [`crc`] — CRC-32 (IEEE) for WAL entry integrity.
//! * [`wal`] — an append-only, CRC-checked write-ahead log with torn-tail
//!   truncation on replay.
//! * `shard` (crate-private) — the lock-striped tree map behind the
//!   store's read path.
//! * `log_index` (crate-private) — the sparse sequence → offset index over
//!   the live log files that lets a replication read fetch only its page.
//! * [`commit`] — durability modes and the group-commit ledger that lets
//!   concurrent writers share one fsync.
//! * [`vfs`] — the filesystem abstraction every durable effect routes
//!   through: a zero-cost `RealVfs` passthrough in production, a
//!   deterministic `SimVfs` (visible/durable split + event log + crash
//!   image reconstruction) for the fault-injection harness.
//! * [`failpoint`] — the deterministic, seedable failpoint registry that
//!   drives fault injection (also loadable from `SOFTREP_FAILPOINTS`).
//! * [`store`] — named B-tree keyspaces ("trees") with atomic write
//!   batches, WAL group-commit durability, snapshot + rotated-WAL replay
//!   recovery, and non-blocking compaction.
//! * [`table`] — a typed table layer (key/record codecs + schema names)
//!   over raw trees.
//! * [`index`] — secondary indexes maintained transactionally with their
//!   base table.
//!
//! Disk layout under a store directory:
//!
//! ```text
//! store/
//!   SNAPSHOT        # full dump of all trees at the last compaction
//!   WAL             # entries applied after the snapshot
//!   WAL.old         # transient: pre-rotation log while a compaction is
//!                   # writing its snapshot (replayed before WAL on open)
//! ```
//!
//! The engine also runs fully in memory ([`store::Store::in_memory`]) for
//! the agent simulations, where durability is irrelevant but the API and
//! constraint checks must match production exactly.

// A panic on the request path turns one hostile frame or bad record into
// an outage: these lints hold outside tests (every module of this crate).
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

pub mod batch;
pub mod codec;
pub mod commit;
pub mod crc;
pub mod error;
pub mod failpoint;
pub mod index;
pub(crate) mod log_index;
pub mod replication;
pub(crate) mod shard;
pub mod store;
pub mod table;
pub mod vfs;
pub mod wal;

pub use batch::WriteBatch;
pub use codec::{Decode, Encode, Reader, Writer};
pub use commit::{CommitLedger, DurabilityMode, StoreOptions};
pub use error::{StorageError, StorageResult};
pub use failpoint::{FailAction, Failpoints, Fault};
pub use replication::{ReplEntry, ReplRead};
pub use store::{Store, StoreStats, TreeName};
pub use table::{KeyCodec, Table, TableSchema};
pub use vfs::{durable_image_at, CrashStyle, RealVfs, SimVfs, Vfs, VfsEvent, VfsFile};
