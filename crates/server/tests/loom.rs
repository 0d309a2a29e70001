//! Race-detection tests for the server's concurrent structures.
//!
//! Run with `cargo test -p softrep-server --features loom`. Each test
//! executes its body under `loom::model_with_stats`, which re-runs the
//! closure under many seeded schedules; the vendored `parking_lot` yields
//! to the model scheduler around every lock operation, so the production
//! session table, flood guard, puzzle gate, and (Mutex-wrapped) WAL are
//! interleaved at every lock boundary without any test-only forks in the
//! production code. Every test also asserts that the exploration actually
//! exercised at least three distinct interleavings — a schedule-diversity
//! floor that keeps these from silently degenerating into single-path
//! tests.
#![cfg(feature = "loom")]

use std::sync::atomic::{AtomicUsize, Ordering};

use loom::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use softrep_core::clock::Timestamp;
use softrep_crypto::puzzle::Challenge;
use softrep_server::flood::FloodGuard;
use softrep_server::pool::WorkerPool;
use softrep_server::puzzle_gate::{PuzzleGate, PuzzleRejection};
use softrep_server::session::SessionManager;
use softrep_server::stats::ServerStats;
use softrep_storage::wal::Wal;
use softrep_storage::{Store, WriteBatch};

const MIN_DISTINCT: usize = 3;

#[test]
fn session_create_resolve_revoke_under_interleaving() {
    let stats = loom::model_with_stats(|| {
        let mgr = Arc::new(SessionManager::new(100));

        let creator_a = {
            let mgr = Arc::clone(&mgr);
            loom::thread::spawn(move || {
                mgr.create("alice", Timestamp(0), &mut StdRng::seed_from_u64(1))
            })
        };
        let creator_b = {
            let mgr = Arc::clone(&mgr);
            loom::thread::spawn(move || {
                mgr.create("bob", Timestamp(0), &mut StdRng::seed_from_u64(2))
            })
        };
        let token_a = creator_a.join().expect("creator a");
        let token_b = creator_b.join().expect("creator b");
        assert_ne!(token_a, token_b, "independent RNG seeds produce distinct tokens");

        // One thread revokes alice while another resolves both tokens.
        let revoker = {
            let mgr = Arc::clone(&mgr);
            let token_a = token_a.clone();
            loom::thread::spawn(move || mgr.revoke(&token_a))
        };
        let resolver = {
            let mgr = Arc::clone(&mgr);
            let token_a = token_a.clone();
            let token_b = token_b.clone();
            loom::thread::spawn(move || {
                let a = mgr.resolve(&token_a, Timestamp(10));
                let b = mgr.resolve(&token_b, Timestamp(10));
                (a, b)
            })
        };
        revoker.join().expect("revoker");
        let (a, b) = resolver.join().expect("resolver");

        // Racing a revoke, alice resolves to her name or nothing — never
        // to someone else's session.
        assert!(a.is_none() || a.as_deref() == Some("alice"), "got {a:?}");
        // Bob's session is untouched by alice's revocation.
        assert_eq!(b.as_deref(), Some("bob"));
        // After both threads settle, alice is definitely gone.
        assert!(mgr.resolve(&token_a, Timestamp(10)).is_none());
        assert_eq!(mgr.len(), 1);
    });
    assert!(
        stats.distinct_schedules >= MIN_DISTINCT,
        "explored only {} distinct schedules",
        stats.distinct_schedules
    );
}

#[test]
fn flood_guard_never_overspends_last_token() {
    let stats = loom::model_with_stats(|| {
        // Capacity 1, negligible refill: of two racing requests, exactly
        // one may pass — a lost update on the bucket would admit both.
        let guard = Arc::new(FloodGuard::new(1, 1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let g = Arc::clone(&guard);
                loom::thread::spawn(move || g.allow("attacker", Timestamp(0)))
            })
            .collect();
        let admitted = handles
            .into_iter()
            .map(|h| h.join().expect("requester"))
            .filter(|&allowed| allowed)
            .count();
        assert_eq!(admitted, 1, "exactly one request may spend the last token");
        assert_eq!(guard.rejected_count(), 1);
        assert_eq!(guard.tracked_identities(), 1);
        // The counters share the bucket-map lock, so a snapshot can never
        // tear: every number agrees with the map state it describes.
        let snap = guard.stats();
        assert_eq!(
            (snap.tracked, snap.rejected, snap.evicted),
            (1, 1, 0),
            "torn flood snapshot: {snap:?}"
        );
    });
    assert!(
        stats.distinct_schedules >= MIN_DISTINCT,
        "explored only {} distinct schedules",
        stats.distinct_schedules
    );
}

#[test]
fn puzzle_redeem_is_exactly_once_under_races() {
    let stats = loom::model_with_stats(|| {
        let gate = Arc::new(PuzzleGate::new(4));
        let encoded = gate.issue(&mut StdRng::seed_from_u64(7), Timestamp(0));
        let (solution, _) = Challenge::decode(&encoded).expect("decode issued").solve();

        // Two clients race to redeem the same solved challenge.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let encoded = encoded.clone();
                loom::thread::spawn(move || gate.redeem(&encoded, solution.nonce))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("redeemer")).collect();

        let successes = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(successes, 1, "a puzzle solution must redeem exactly once, got {results:?}");
        assert!(results
            .iter()
            .all(|r| matches!(r, Ok(()) | Err(PuzzleRejection::UnknownChallenge))));
        assert_eq!(gate.outstanding_count(), 0, "challenge fully consumed");
    });
    assert!(
        stats.distinct_schedules >= MIN_DISTINCT,
        "explored only {} distinct schedules",
        stats.distinct_schedules
    );
}

#[test]
fn worker_pool_grants_the_last_slot_exactly_once() {
    let stats = loom::model_with_stats(|| {
        // One free slot, two racing acceptors: a lost update on the active
        // count would admit both and break the concurrency bound the whole
        // overload defence rests on.
        let pool = Arc::new(WorkerPool::new(1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&pool);
                loom::thread::spawn(move || p.try_acquire())
            })
            .collect();
        let permits: Vec<_> = handles.into_iter().map(|h| h.join().expect("acceptor")).collect();
        let admitted = permits.iter().filter(|p| p.is_some()).count();
        assert_eq!(admitted, 1, "exactly one acceptor may claim the last slot");
        assert_eq!(pool.active(), 1);

        // Releasing the permit (from whichever thread won) makes the slot
        // reusable — and never double-frees below zero.
        drop(permits);
        assert_eq!(pool.active(), 0);
        assert!(pool.try_acquire().is_some(), "released slot is reusable");
    });
    assert!(
        stats.distinct_schedules >= MIN_DISTINCT,
        "explored only {} distinct schedules",
        stats.distinct_schedules
    );
}

#[test]
fn server_stats_snapshots_stay_internally_consistent() {
    let stats = loom::model_with_stats(|| {
        // Two connection lifecycles race a snapshot reader. Because every
        // counter lives behind one lock, any snapshot must satisfy the
        // lifecycle invariant active == accepted - closed; split atomics
        // would let a reader observe a torn intermediate state.
        let counters = Arc::new(ServerStats::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&counters);
                loom::thread::spawn(move || {
                    c.record_accepted();
                    c.record_request_served();
                    c.record_closed();
                })
            })
            .collect();
        let reader = {
            let c = Arc::clone(&counters);
            loom::thread::spawn(move || c.snapshot())
        };
        for w in workers {
            w.join().expect("worker");
        }
        let mid = reader.join().expect("reader");
        assert_eq!(
            mid.active as i64,
            mid.accepted as i64 - mid.closed as i64,
            "torn snapshot: {mid:?}"
        );
        assert!(mid.requests_served <= mid.accepted, "torn snapshot: {mid:?}");

        let fin = counters.snapshot();
        assert_eq!(fin.accepted, 2);
        assert_eq!(fin.closed, 2);
        assert_eq!(fin.active, 0);
        assert_eq!(fin.requests_served, 2);
    });
    assert!(
        stats.distinct_schedules >= MIN_DISTINCT,
        "explored only {} distinct schedules",
        stats.distinct_schedules
    );
}

#[test]
fn vote_racing_aggregation_drain_lands_in_this_batch_or_the_next() {
    let stats = loom::model_with_stats(|| {
        // The incremental aggregation protocol at store level: a voter
        // applies {vote, dirty mark} in one batch while the aggregator
        // drains the marks and *then* reads the votes. Whatever the
        // interleaving, the vote must be visible to this batch's read or
        // its mark must survive for the next batch — a vote observed by
        // neither would fall out of the published ratings forever.
        let store = Arc::new(Store::in_memory());
        let voter = {
            let store = Arc::clone(&store);
            loom::thread::spawn(move || {
                let mut batch = WriteBatch::new();
                batch.put("votes", b"sw1/alice".to_vec(), b"score9".to_vec());
                batch.put("agg_dirty", b"sw1".to_vec(), Vec::new());
                store.apply(&batch).expect("vote batch");
            })
        };
        let aggregator = {
            let store = Arc::clone(&store);
            loom::thread::spawn(move || {
                // Drain: delete the marks before reading any votes.
                let marks = store.scan_all("agg_dirty");
                if !marks.is_empty() {
                    let mut purge = WriteBatch::new();
                    for (key, _) in &marks {
                        purge.delete("agg_dirty", key.clone());
                    }
                    store.apply(&purge).expect("purge marks");
                }
                let votes_seen = store.scan_prefix("votes", b"sw1").len();
                (marks.len(), votes_seen)
            })
        };
        voter.join().expect("voter");
        let (drained, votes_seen) = aggregator.join().expect("aggregator");

        if drained == 1 {
            // The mark was visible, so the atomic batch had landed — the
            // later vote read must have seen the ballot (it is folded into
            // this aggregation).
            assert_eq!(votes_seen, 1, "drained the mark but missed the vote");
        }
        // Never dropped: the vote made this batch, or its mark is intact
        // for the next one.
        let mark_remains = store.contains("agg_dirty", b"sw1");
        assert!(
            votes_seen == 1 || mark_remains,
            "vote invisible to this batch and unmarked for the next (drained={drained})"
        );
        assert_eq!(mark_remains, drained == 0, "drain must consume exactly the marks it saw");
    });
    assert!(
        stats.distinct_schedules >= MIN_DISTINCT,
        "explored only {} distinct schedules",
        stats.distinct_schedules
    );
}

#[test]
fn wal_appends_from_two_writers_all_survive_replay() {
    // Each schedule needs its own WAL file; a process-unique counter keeps
    // parallel test binaries and successive seeds from colliding.
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let stats = loom::model_with_stats(|| {
        let run = RUN.fetch_add(1, Ordering::SeqCst);
        let path =
            std::env::temp_dir().join(format!("softrep-loom-wal-{}-{run}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let wal = Arc::new(Mutex::new(Wal::open(&path).expect("open wal")));
        let handles: Vec<_> = (0u8..2)
            .map(|writer| {
                let wal = Arc::clone(&wal);
                loom::thread::spawn(move || {
                    let payload = [writer; 8];
                    let mut guard = wal.lock();
                    guard.append(&payload).expect("append");
                    guard.sync().expect("sync");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer");
        }

        let entries = Wal::replay(&path).expect("replay");
        assert_eq!(entries.len(), 2, "both appends survive whatever the order");
        let mut seen: Vec<u8> = entries.iter().map(|e| e[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
        assert!(entries.iter().all(|e| e.len() == 8));
        let _ = std::fs::remove_file(&path);
    });
    assert!(
        stats.distinct_schedules >= MIN_DISTINCT,
        "explored only {} distinct schedules",
        stats.distinct_schedules
    );
}
