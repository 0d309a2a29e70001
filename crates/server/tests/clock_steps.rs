//! Clock-step robustness: sessions, the registration puzzle gate, and the
//! flood guard under backward and forward time steps.
//!
//! The server's components take `Timestamp` values from their caller, so
//! a stepped clock (NTP correction, VM resume, operator fat-finger) shows
//! up as non-monotonic `now` arguments. The invariants: a backward step
//! never expires a session early, never mints flood tokens, and never
//! reopens a redeemed puzzle; a forward step expires exactly what its
//! magnitude says it should.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use softrep_core::clock::Timestamp;
use softrep_crypto::puzzle::Challenge;
use softrep_server::flood::FloodGuard;
use softrep_server::puzzle_gate::{PuzzleGate, PuzzleRejection};
use softrep_server::session::SessionManager;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xc10c)
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

/// A backward clock step must not expire a live session: expiry compares
/// against the issued-at deadline, and an earlier `now` is further from
/// it, not closer.
#[test]
fn backward_step_does_not_expire_a_live_session() {
    let mgr = SessionManager::new(100);
    let token = mgr.create("alice", Timestamp(1_000), &mut rng());

    assert_eq!(mgr.resolve(&token, Timestamp(1_050)).as_deref(), Some("alice"));
    // The clock steps back 900 s mid-session.
    assert_eq!(
        mgr.resolve(&token, Timestamp(150)).as_deref(),
        Some("alice"),
        "a backward step must not invalidate a session early"
    );
    // Housekeeping at the stepped-back time must not collect it either.
    assert_eq!(mgr.prune(Timestamp(150)), 0, "prune at an earlier now must keep live sessions");
    // Back on the original timeline the TTL is unchanged: still valid
    // just before the deadline, gone at it.
    assert_eq!(mgr.resolve(&token, Timestamp(1_099)).as_deref(), Some("alice"));
    assert_eq!(mgr.resolve(&token, Timestamp(1_100)), None, "TTL did not stretch");
}

/// A forward step expires exactly the sessions whose deadlines it passes
/// — and resolution after expiry removes the token for good, so stepping
/// back afterwards cannot resurrect it.
#[test]
fn forward_step_expires_and_expiry_is_final_across_later_backward_steps() {
    let mgr = SessionManager::new(100);
    let mut rng = rng();
    let young = mgr.create("young", Timestamp(1_000), &mut rng);
    let old = mgr.create("old", Timestamp(500), &mut rng);

    // Jump forward past `old`'s deadline (600) but not `young`'s (1100).
    assert_eq!(mgr.resolve(&old, Timestamp(1_050)), None, "deadline passed during the jump");
    assert_eq!(mgr.resolve(&young, Timestamp(1_050)).as_deref(), Some("young"));

    // The clock steps back to before `old`'s original deadline: the token
    // was removed at expiry, so it must stay dead.
    assert_eq!(
        mgr.resolve(&old, Timestamp(550)),
        None,
        "an expired-and-removed session must not resurrect on a backward step"
    );
    assert_eq!(mgr.len(), 1, "only the live session remains tracked");
}

/// Pruning with a far-forward `now` collects everything at once and a
/// session created after a backward step lives its full TTL from its own
/// (earlier) issue time.
#[test]
fn prune_under_steps_collects_exactly_the_dead() {
    let mgr = SessionManager::new(100);
    let mut rng = rng();
    let _a = mgr.create("a", Timestamp(1_000), &mut rng);
    // The clock steps back 500 s; a login happens on the stepped clock.
    let b = mgr.create("b", Timestamp(500), &mut rng);

    // At t=650 (still stepped back): b expired at 600, a is alive.
    assert_eq!(mgr.prune(Timestamp(650)), 1, "only the b session is past its deadline");
    assert_eq!(mgr.resolve(&b, Timestamp(650)), None);
    assert_eq!(mgr.len(), 1);

    // A massive forward step collects the rest.
    assert_eq!(mgr.prune(Timestamp(1_000_000)), 1);
    assert!(mgr.is_empty());
}

// ---------------------------------------------------------------------
// Puzzle gate
// ---------------------------------------------------------------------

/// Puzzle redemption is deliberately clock-free: a challenge solved during
/// any clock turbulence redeems exactly once, and a replay is refused no
/// matter where the clock has stepped meanwhile. No step mints a free
/// (re-usable) registration token. Issue times feed only pruning, and a
/// backward step prunes nothing early.
#[test]
fn puzzle_redemption_is_single_use_regardless_of_clock_steps() {
    let gate = PuzzleGate::new(4);
    let mut rng = rng();

    let encoded = gate.issue(&mut rng, Timestamp(10_000));
    let challenge = Challenge::decode(&encoded).expect("issued challenge decodes");
    let (solution, _attempts) = challenge.solve();

    // A backward step before redemption: pruning at the earlier time
    // drops nothing, and redeem takes no timestamp a step could exploit.
    assert_eq!(gate.prune(Timestamp(0)), 0);
    assert_eq!(gate.redeem(&encoded, solution.nonce), Ok(()));
    assert_eq!(
        gate.redeem(&encoded, solution.nonce),
        Err(PuzzleRejection::UnknownChallenge),
        "replaying a redeemed puzzle must fail whatever the clock did in between"
    );
    assert_eq!(gate.outstanding_count(), 0, "no re-issued obligation after the replay attempt");

    // A wrong solution leaves the challenge retryable; the prior state is
    // not corrupted by the failed attempt.
    let encoded2 = gate.issue(&mut rng, Timestamp(0));
    let challenge2 = Challenge::decode(&encoded2).expect("decodes");
    let (solution2, _) = challenge2.solve();
    assert_eq!(
        gate.redeem(&encoded2, solution2.nonce.wrapping_add(1)),
        Err(PuzzleRejection::WrongSolution)
    );
    assert_eq!(gate.redeem(&encoded2, solution2.nonce), Ok(()), "retry after wrong solution");
}

// ---------------------------------------------------------------------
// Flood guard
// ---------------------------------------------------------------------

/// A backward step mints no tokens: refill is measured as saturating
/// elapsed time since the last refill, so `now` values in the past
/// contribute zero.
#[test]
fn backward_step_mints_no_flood_tokens() {
    // 1 token/second refill, 3-token burst.
    let guard = FloodGuard::new(3, 3_600);
    let id = "peer-a";

    for _ in 0..3 {
        assert!(guard.allow(id, Timestamp(1_000)), "burst capacity");
    }
    assert!(!guard.allow(id, Timestamp(1_000)), "bucket drained");

    // Step back 900 s: still drained — elapsed time saturates at zero.
    assert!(!guard.allow(id, Timestamp(100)), "backward step must not refill");
    // And critically the refill watermark did not move backwards: coming
    // back to the original time is still zero elapsed, not +900 s.
    assert!(
        !guard.allow(id, Timestamp(1_000)),
        "recovering the original time must not replay the interval's refill"
    );
    // Real forward progress refills normally.
    assert!(guard.allow(id, Timestamp(1_002)), "one second of real time, one token");
}

/// An oscillating clock (repeated forward/backward steps over the same
/// interval) is worth at most one traversal of that interval in refill —
/// the guard never pays for the same second twice.
#[test]
fn oscillating_clock_cannot_multiply_refill() {
    let guard = FloodGuard::new(10, 3_600);
    let id = "peer-b";

    for _ in 0..10 {
        assert!(guard.allow(id, Timestamp(5_000)));
    }
    assert!(!guard.allow(id, Timestamp(5_000)), "drained");

    // 20 swings between t=5_000 and t=5_010: if each forward swing
    // re-minted the 10 s interval, the flooder would get ~200 tokens.
    // It must get exactly the 10 the interval is worth.
    let mut granted = 0;
    for _ in 0..10 {
        for t in [5_010, 5_000] {
            for _ in 0..3 {
                if guard.allow(id, Timestamp(t)) {
                    granted += 1;
                }
            }
        }
    }
    assert_eq!(granted, 10, "an oscillated interval refills exactly once");
    assert!(guard.rejected_count() > 0, "the excess was rejected, not queued");
}

/// Forward steps refill proportionally and cap at the burst capacity —
/// a month-long jump is worth a full bucket, not an unbounded credit.
#[test]
fn forward_jump_caps_at_capacity() {
    let guard = FloodGuard::new(3, 3_600);
    let id = "peer-c";

    for _ in 0..3 {
        assert!(guard.allow(id, Timestamp(0)));
    }
    assert!(!guard.allow(id, Timestamp(0)));

    // One month forward: worth a full burst and nothing more.
    let month = Timestamp(Duration::from_secs(30 * 24 * 3_600).as_secs());
    for _ in 0..3 {
        assert!(guard.allow(id, month), "refilled to capacity");
    }
    assert!(!guard.allow(id, month), "not beyond capacity");
}
