//! Crash-schedule explorer: enumerate every durable-effect site of a
//! recorded workload, reconstruct the on-disk image a crash there would
//! leave, and prove the production recovery path restores a consistent
//! prefix — no lost committed batch, no half-applied batch, no panic.
//!
//! The matrix is (durable site k) × (crash style): `DurableOnly` models a
//! clean power cut, `TornHalf` a tear in the unsynced tail, `AllPending`
//! an OS that flushed everything the process wrote. See DESIGN.md §13.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softwareputation::core::clock::{SimClock, Timestamp};
use softwareputation::core::db::ReputationDb;
use softwareputation::crypto::rsa::RsaKeypair;
use softwareputation::crypto::salted::SecretPepper;
use softwareputation::proto::{Request, Response};
use softwareputation::server::pseudonym_key::KEY_FILE;
use softwareputation::server::{ReputationServer, ServerConfig};
use softwareputation::storage::failpoint::{self, FailAction};
use softwareputation::storage::{
    durable_image_at, CrashStyle, DurabilityMode, Fault, SimVfs, Store, StoreOptions, VfsEvent,
    WriteBatch,
};

#[path = "support/crash.rs"]
mod crash;
#[path = "support/repl_oracle.rs"]
mod repl_oracle;
#[path = "support/tempdir.rs"]
mod tempdir;

use crash::{
    check_recovery, materialize, record_canonical_workload, site_label, Recording, TREE_A,
};
use repl_oracle::Oracle;
use tempdir::TempDir;

const STYLES: [CrashStyle; 3] =
    [CrashStyle::DurableOnly, CrashStyle::TornHalf, CrashStyle::AllPending];

/// The tentpole assertion: the canonical workload exposes a rich schedule
/// (ISSUE acceptance: at least 25 distinct durable-effect sites) and the
/// recovery invariant holds at every one of them, under every crash style.
#[test]
fn canonical_workload_recovers_at_every_durable_site() {
    let rec = record_canonical_workload(18, &[5, 11]);
    assert!(
        rec.sites >= 25,
        "canonical workload only produced {} durable sites; the explorer \
         needs >= 25 to cover append/sync/rotate/snapshot/retire schedules",
        rec.sites
    );

    let dir = TempDir::new("crash-matrix");
    // k == rec.sites is the "no crash" end of the range and must also hold.
    for k in 0..=rec.sites {
        for style in STYLES {
            let label = site_label(&rec, k, style);
            let image = durable_image_at(&rec.log, k, style);
            materialize(&image, dir.path());
            check_recovery(dir.path(), &rec, k, &label);
        }
    }
}

/// The final image (all sites durable) recovers the complete history.
#[test]
fn final_image_recovers_every_batch() {
    let rec = record_canonical_workload(12, &[7]);
    let dir = TempDir::new("crash-final");
    let image = durable_image_at(&rec.log, rec.sites, CrashStyle::DurableOnly);
    materialize(&image, dir.path());
    let n = check_recovery(dir.path(), &rec, rec.sites, "final image");
    assert_eq!(n, rec.total_batches, "fully-synced image must recover every batch");
}

/// Randomized exploration: workload shape (batch count, compaction points)
/// is drawn from `SOFTREP_CRASH_SEED` (or a fixed default), and the seed is
/// baked into every assertion label so a CI failure is reproducible with
/// `SOFTREP_CRASH_SEED=<seed> cargo test -q --test crash_matrix`.
#[test]
fn randomized_workload_recovers_at_every_durable_site() {
    let seed: u64 =
        std::env::var("SOFTREP_CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE);
    let mut rng = StdRng::seed_from_u64(seed);

    let total = rng.gen_range(8..=24);
    let mut compact_after: Vec<usize> = Vec::new();
    for i in 0..total {
        if rng.gen_bool(0.2) {
            compact_after.push(i);
        }
    }
    let rec = record_canonical_workload(total, &compact_after);

    let dir = TempDir::new("crash-random");
    for k in 0..=rec.sites {
        for style in STYLES {
            let label = format!(
                "seed {seed} (workload: {total} batches, compact after {compact_after:?}) {}",
                site_label(&rec, k, style)
            );
            let image = durable_image_at(&rec.log, k, style);
            materialize(&image, dir.path());
            check_recovery(dir.path(), &rec, k, &label);
        }
    }
}

/// The sparse sequence index behind `Store::replication_read` is derived
/// state, rebuilt by every open. At every durable site of a compacting
/// workload, under every crash style, the reopened store must serve every
/// replication page exactly as a full scan of its recovered log files
/// does — including images caught between rotation and `WAL.old`'s
/// retirement, which open resumes — and keep doing so once new appends
/// extend the rebuilt index.
#[test]
fn recovered_store_serves_replication_pages_like_a_full_scan_at_every_site() {
    const PAGES: [(usize, usize); 3] = [(1, 1), (4, 120), (usize::MAX, usize::MAX)];
    let rec = record_canonical_workload(18, &[5, 11]);
    let dir = TempDir::new("crash-repl-index");
    for k in 0..=rec.sites {
        for style in STYLES {
            let label = site_label(&rec, k, style);
            materialize(&durable_image_at(&rec.log, k, style), dir.path());
            let store = Store::open(dir.path())
                .unwrap_or_else(|e| panic!("recovery failed at {label}: {e}"));
            Oracle::read_dir(dir.path()).assert_matches(&store, &PAGES, &label);
            for i in 0..3u8 {
                store.put(TREE_A, vec![b'x', i], vec![i; 40]).expect("append after recovery");
            }
            let label = format!("{label}, after three appends");
            Oracle::read_dir(dir.path()).assert_matches(&store, &PAGES, &label);
        }
    }
}

/// Accumulator consistency across crashes: whatever vote prefix survives,
/// the incremental aggregation path over the recovered store must agree
/// with a from-scratch full aggregation — a crash may shorten history but
/// never fork the ratings.
#[test]
fn recovered_accumulators_match_full_reaggregation_at_every_site() {
    let (log, sites) = record_vote_workload(|_, _| {});
    assert!(sites >= 10, "DB workload produced only {sites} durable sites");
    assert_incremental_matches_full_at_every_site(&log, sites);
}

/// The trust-change dirty rule across a crash (DESIGN.md §9): a trust
/// change dirties every title the member voted on. The new trust record
/// and those marks must recover together, or the incremental batch never
/// recomputes the titles and disagrees with the full batch for good.
#[test]
fn trust_change_and_its_dirty_marks_recover_together_at_every_site() {
    let (log, sites) = record_vote_workload(|db, t| {
        db.adjust_trust("alice", 0.5, t).expect("adjust trust");
    });
    assert_incremental_matches_full_at_every_site(&log, sites);
}

/// Record a vote-heavy DB workload over the simulator: three members vote
/// on three titles in four rounds, each followed by an incremental batch;
/// then `finish` runs before the final sync. Returns the VFS event log and
/// its durable-site count.
fn record_vote_workload(finish: impl FnOnce(&ReputationDb, Timestamp)) -> (Vec<VfsEvent>, usize) {
    let vfs = SimVfs::new();
    let store = Store::open_with_vfs(
        "/sim/crash-db",
        StoreOptions { durability: DurabilityMode::Always, shards: 4 },
        Arc::new(vfs.clone()),
    )
    .expect("open sim store");
    let db = ReputationDb::new(Arc::new(store), SecretPepper::new("it-pepper"));
    let mut rng = StdRng::seed_from_u64(42);
    for (i, user) in ["alice", "bob", "carol"].iter().enumerate() {
        let token = db
            .register_user(user, "pw", &format!("{user}@x.example"), Timestamp(i as u64), &mut rng)
            .expect("register");
        db.activate_user(user, &token).expect("activate");
    }
    for tag in 1..=3u8 {
        db.register_software(&sw(tag), &format!("app{tag}.exe"), 512, None, None, Timestamp(5))
            .expect("register software");
    }
    let mut t = 10u64;
    for round in 0..4u64 {
        for user in ["alice", "bob", "carol"] {
            for tag in 1..=3u8 {
                let verdict = u8::try_from((round + u64::from(tag)) % 10).expect("verdict fits");
                db.submit_vote(user, &sw(tag), verdict, vec!["spyware".into()], Timestamp(t))
                    .expect("vote");
                t += 1;
            }
        }
        db.force_aggregation_incremental(Timestamp(t)).expect("aggregate");
        t += 1;
    }
    finish(&db, Timestamp(t));
    db.store().sync().expect("final sync");
    drop(db);
    (vfs.event_log(), vfs.durable_site_count())
}

/// At every durable site of `log`, reopen the clean-power-cut image and
/// check that an incremental catch-up publishes exactly the ratings a full
/// reaggregation of the recovered votes does.
fn assert_incremental_matches_full_at_every_site(log: &[VfsEvent], sites: usize) {
    let dir = TempDir::new("crash-db");
    for k in 0..=sites {
        let image = durable_image_at(log, k, CrashStyle::DurableOnly);
        materialize(&image, dir.path());
        let db = ReputationDb::new(
            Arc::new(Store::open(dir.path()).unwrap_or_else(|e| panic!("site {k}: reopen: {e}"))),
            SecretPepper::new("it-pepper"),
        );
        // Incremental catch-up over whatever survived...
        db.force_aggregation_incremental(Timestamp(10_000))
            .unwrap_or_else(|e| panic!("site {k}: incremental aggregation: {e}"));
        let incremental: Vec<Vec<u8>> = db
            .ratings_snapshot()
            .unwrap_or_else(|e| panic!("site {k}: snapshot: {e}"))
            .iter()
            .map(|r| r.content_bytes())
            .collect();
        // ...must agree with replaying every recovered vote from scratch.
        db.force_aggregation_full(Timestamp(10_001))
            .unwrap_or_else(|e| panic!("site {k}: full aggregation: {e}"));
        let full: Vec<Vec<u8>> = db
            .ratings_snapshot()
            .unwrap_or_else(|e| panic!("site {k}: snapshot: {e}"))
            .iter()
            .map(|r| r.content_bytes())
            .collect();
        assert_eq!(
            incremental, full,
            "site {k}/{sites}: incremental accumulators diverge from full reaggregation"
        );
    }
}

/// The pseudonym key's side file across a crash (DESIGN.md §5 invariant
/// 13). A server over a simulated store votes, makes its key on the first
/// pseudonym request, then keeps writing and compacts. At every durable
/// site and crash style, recovery sees no key file or the whole key, never
/// a torn one; and once the key answered a request, it is there.
#[test]
fn pseudonym_key_file_is_whole_or_absent_at_every_site() {
    let vfs = SimVfs::new();
    let store = Store::open_with_vfs(
        "/sim/crash-key",
        StoreOptions { durability: DurabilityMode::Always, shards: 2 },
        Arc::new(vfs.clone()),
    )
    .expect("open sim store");
    let db = ReputationDb::new(Arc::new(store), SecretPepper::new("it-pepper"));
    let config = ServerConfig {
        puzzle_difficulty: 0,
        pseudonym_key_bits: 256,
        flood_capacity: u32::MAX,
        flood_refill_per_hour: u32::MAX,
        ..ServerConfig::default()
    };
    let server = ReputationServer::new(db, Arc::new(SimClock::new()), config.clone(), 5);
    let mut rng = StdRng::seed_from_u64(42);
    let register = |user: &str, rng: &mut StdRng| {
        let db = server.db();
        let token = db
            .register_user(user, "pw", &format!("{user}@x.example"), Timestamp(0), rng)
            .expect("register");
        db.activate_user(user, &token).expect("activate");
    };
    register("alice", &mut rng);
    let before_key = vfs.durable_site_count();
    let Response::PseudonymKey { n, .. } = server.handle(&Request::GetPseudonymKey, "c") else {
        panic!("the first pseudonym request makes the key")
    };
    let answered_at = vfs.durable_site_count();
    assert!(answered_at > before_key, "the key write adds durable sites");
    register("bob", &mut rng);
    server.db().store().compact().expect("compact");
    register("carol", &mut rng);
    server.db().store().sync().expect("final sync");
    drop(server);
    let rec = Recording {
        log: vfs.event_log(),
        sites: vfs.durable_site_count(),
        confirmed_at: Vec::new(),
        total_batches: 0,
    };

    let dir = TempDir::new("crash-key");
    for k in 0..=rec.sites {
        for style in STYLES {
            let label = site_label(&rec, k, style);
            materialize(&durable_image_at(&rec.log, k, style), dir.path());
            let store = Store::open(dir.path()).unwrap_or_else(|e| panic!("{label}: reopen: {e}"));
            let Some(bytes) = store.read_local(KEY_FILE).expect("read key file") else {
                assert!(k < answered_at, "{label}: the key that answered a request is lost");
                continue;
            };
            let key = std::str::from_utf8(&bytes)
                .ok()
                .and_then(RsaKeypair::decode)
                .unwrap_or_else(|| panic!("{label}: torn key file"));
            assert_eq!(key.public_key().n.to_hex(), n, "{label}: a different key");
            let db = ReputationDb::new(Arc::new(store), SecretPepper::new("it-pepper"));
            let server = ReputationServer::new(db, Arc::new(SimClock::new()), config.clone(), 6);
            let resp = server.handle(&Request::GetPseudonymKey, "c");
            assert!(
                matches!(resp, Response::PseudonymKey { n: ref got, .. } if *got == n),
                "{label}: the recovered server answers {resp:?}"
            );
        }
    }
}

fn sw(tag: u8) -> String {
    format!("{tag:02x}").repeat(20)
}

/// ISSUE acceptance: an injected fsync failure surfaces as a typed storage
/// error — never a panic — and the store keeps serving reads; clearing the
/// failpoint restores write service on a fresh handle.
#[test]
fn injected_fsync_failure_is_a_typed_error_not_a_panic() {
    let vfs = SimVfs::new();
    let store = Store::open_with_vfs(
        "/sim/fsync-fault",
        StoreOptions { durability: DurabilityMode::Always, shards: 2 },
        Arc::new(vfs.clone()),
    )
    .expect("open sim store");

    let mut batch = WriteBatch::new();
    batch.put("t", b"k0".to_vec(), b"v0".to_vec());
    store.apply(&batch).expect("healthy apply");

    vfs.failpoints().set("vfs.sync", FailAction::Every(Fault::Err));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k1".to_vec(), b"v1".to_vec());
    let err = store.apply(&batch).expect_err("apply must fail while fsync is failing");
    let msg = err.to_string();
    assert!(msg.contains("vfs.sync"), "error should name the failing site, got: {msg}");
    assert!(vfs.failpoints().trip_count("vfs.sync") > 0, "failpoint never tripped");

    // Reads keep working; the durable image was not corrupted.
    assert_eq!(store.get("t", b"k0"), Some(b"v0".to_vec()));

    // Clearing the fault and reopening recovers: batch 0 is there, and new
    // writes succeed again. (The failed flush may have poisoned the live
    // WAL handle by design — reopen is the documented recovery.)
    vfs.failpoints().clear("vfs.sync");
    drop(store);
    let store = Store::open_with_vfs(
        "/sim/fsync-fault",
        StoreOptions { durability: DurabilityMode::Always, shards: 2 },
        Arc::new(vfs.clone()),
    )
    .expect("reopen after clearing fault");
    assert_eq!(store.get("t", b"k0"), Some(b"v0".to_vec()));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k2".to_vec(), b"v2".to_vec());
    store.apply(&batch).expect("writes recover after the fault clears");
}

/// The global registry (the `SOFTREP_FAILPOINTS` backend) injects faults
/// into the real filesystem VFS too, scoped by path substring so other
/// tests in this binary are unaffected.
#[test]
fn global_failpoints_reach_the_real_vfs() {
    let dir = TempDir::new("global-fp-reach");
    let scope = dir
        .path()
        .file_name()
        .and_then(|n| n.to_str())
        .expect("temp dir name is utf-8")
        .to_string();

    let store = Store::open_with(
        dir.path(),
        StoreOptions { durability: DurabilityMode::Always, shards: 2 },
    )
    .expect("open real store");
    let mut batch = WriteBatch::new();
    batch.put("t", b"k0".to_vec(), b"v0".to_vec());
    store.apply(&batch).expect("healthy apply");

    failpoint::arm_global_scoped("vfs.sync", &scope, FailAction::Every(Fault::Err));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k1".to_vec(), b"v1".to_vec());
    let err = store.apply(&batch).expect_err("global failpoint must fail the apply");
    assert!(err.to_string().contains("vfs.sync"), "unexpected error: {err}");
    failpoint::disarm_global("vfs.sync");

    drop(store);
    let store = Store::open(dir.path()).expect("reopen after disarming");
    assert_eq!(store.get("t", b"k0"), Some(b"v0".to_vec()));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k2".to_vec(), b"v2".to_vec());
    store.apply(&batch).expect("writes recover once the global point is disarmed");
}
