//! Seeded data directories: built once per (workload, seed) through the
//! public database API, cached under the work directory, and copied for
//! every server start.
//!
//! The cache is keyed by a fingerprint of the running binary as well, so a
//! change to the code that writes the store (its format, its log, what one
//! write records) builds fresh directories instead of reusing another
//! build's.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use softrep_core::clock::Timestamp;
use softrep_core::db::ReputationDb;
use softrep_crypto::salted::SecretPepper;
use softrep_storage::{Store, StoreOptions};

use crate::rng::SplitMix64;
use crate::workload::{Dataset, DATA_EPOCH, PEPPER};

/// A ready data directory.
pub struct Seeded {
    /// The store directory to copy.
    pub store: PathBuf,
    /// The store's newest committed log sequence number.
    pub committed_seq: u64,
}

/// The data directory of `data`, built on first use.
pub fn ensure(work: &Path, data: &Dataset) -> Result<Seeded, String> {
    let root = work.join("data").join(builder_fingerprint()?);
    let name = format!("{}-{}", data.workload.name(), data.seed);
    let dir = root.join(&name);
    let ready = fs::read_to_string(dir.join("READY")).ok();
    if let Some(committed_seq) = ready.and_then(|text| text.trim().parse().ok()) {
        return Ok(Seeded { store: dir.join("store"), committed_seq });
    }
    // Build beside the final name and rename into place, so an interrupted
    // build is never mistaken for a finished one.
    let building = root.join(format!("{name}.building-{}", std::process::id()));
    let _ = fs::remove_dir_all(&building);
    let _ = fs::remove_dir_all(&dir);
    let committed_seq = build(&building.join("store"), data)?;
    fs::write(building.join("READY"), format!("{committed_seq}\n")).map_err(io_err)?;
    fs::rename(&building, &dir).map_err(io_err)?;
    Ok(Seeded { store: dir.join("store"), committed_seq })
}

/// FNV-1a of the running binary, which holds every line of code that
/// builds a data directory.
fn builder_fingerprint() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let hash = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    Ok(format!("{hash:016x}"))
}

/// Seed a fresh store: titles, activated members, ballots, comments, and
/// one full aggregation batch, each through `ReputationDb`. The log is
/// left uncompacted, so every server start replays it.
fn build(dir: &Path, data: &Dataset) -> Result<u64, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("seeding {what}: {e}");
    let store = Store::open_with(dir, StoreOptions::default()).map_err(|e| fail("store", &e))?;
    let store = Arc::new(store);
    let db = ReputationDb::new(Arc::clone(&store), SecretPepper::new(PEPPER.as_bytes().to_vec()));
    let now = Timestamp(DATA_EPOCH);
    for (t, id) in data.titles.iter().enumerate() {
        let vendor = Dataset::vendor_name(data.vendor_of[t]);
        let file = format!("app{t}.exe");
        db.register_software(id, &file, 4_096 + t as u64, Some(vendor), Some("1.0".into()), now)
            .map_err(|e| fail("titles", &e))?;
    }
    let mut rng = SplitMix64::derive(data.seed, 5);
    for m in 0..data.members {
        let name = Dataset::member_name(m);
        let (password, email) = (Dataset::member_password(m), Dataset::member_email(m));
        let token = db
            .register_user(&name, &password, &email, now, &mut rng)
            .map_err(|e| fail("members", &e))?;
        db.activate_user(&name, &token).map_err(|e| fail("members", &e))?;
    }
    for &(m, t, score) in &data.votes {
        db.submit_vote(&Dataset::member_name(m), &data.titles[t as usize], score, Vec::new(), now)
            .map_err(|e| fail("ballots", &e))?;
    }
    for (k, &(author, t)) in data.comments.iter().enumerate() {
        let text = format!("seeded comment {k}: installs a toolbar");
        let id = db
            .submit_comment(&Dataset::member_name(author), &data.titles[t as usize], &text, now)
            .map_err(|e| fail("comments", &e))?;
        if id != k as u64 + 1 {
            return Err(format!("seeded comment {k} got id {id}"));
        }
    }
    db.force_aggregation_full(now).map_err(|e| fail("aggregation", &e))?;
    store.sync().map_err(|e| fail("sync", &e))?;
    Ok(store.committed_seq())
}

/// Copy the store directory `from` (plain files only) to `to`.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(io_err)?;
    for entry in fs::read_dir(from).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        if entry.file_type().map_err(io_err)?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name())).map_err(io_err)?;
        }
    }
    Ok(())
}

fn io_err(e: std::io::Error) -> String {
    format!("data directory: {e}")
}
