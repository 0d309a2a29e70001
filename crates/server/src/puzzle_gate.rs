//! Registration puzzle issuance and redemption.
//!
//! The server hands out [`softrep_crypto::puzzle::Challenge`]s and accepts
//! each exactly once: a challenge must have been issued by *this* server
//! (attackers cannot self-issue easy puzzles) and is consumed on
//! redemption (solutions cannot be replayed across registrations). Both
//! properties are what make the puzzle an effective per-account cost for
//! the Sybil defence measured in experiment D3.
//!
//! The set of outstanding challenges is bounded: each challenge records
//! when it was issued, [`PuzzleGate::prune`] (run on every server tick)
//! drops those older than [`CHALLENGE_TTL_SECS`], and issuing past
//! [`MAX_OUTSTANDING`] evicts the oldest. Redemption itself takes no timestamp, so a
//! clock step can expire a challenge early but never reopen a redeemed one.

use std::collections::{HashSet, VecDeque};

use parking_lot::Mutex;
use rand::RngCore;

use softrep_core::clock::Timestamp;
use softrep_crypto::puzzle::{Challenge, Solution};

/// How long an issued challenge stays redeemable before [`PuzzleGate::prune`]
/// may drop it. Solving takes milliseconds at the deployed difficulty.
pub const CHALLENGE_TTL_SECS: u64 = 3_600;

/// Most challenges a gate tracks at once (about 100 bytes each).
pub const MAX_OUTSTANDING: usize = 65_536;

/// Tracks outstanding puzzle challenges.
pub struct PuzzleGate {
    difficulty: u8,
    outstanding: Mutex<Outstanding>,
    issued: Mutex<u64>,
}

struct Outstanding {
    /// Issued and not yet redeemed, pruned or evicted.
    live: HashSet<String>,
    /// Issue time of every challenge in `live`, plus redeemed ones not yet
    /// dropped, in issue order. Its length bounds `live`'s.
    order: VecDeque<(Timestamp, String)>,
}

/// Why a redemption failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PuzzleRejection {
    /// The challenge was never issued here, or was already used.
    UnknownChallenge,
    /// The solution does not satisfy the difficulty.
    WrongSolution,
}

impl PuzzleGate {
    /// Gate issuing puzzles at `difficulty` leading zero bits.
    pub fn new(difficulty: u8) -> Self {
        PuzzleGate {
            difficulty,
            outstanding: Mutex::new(Outstanding { live: HashSet::new(), order: VecDeque::new() }),
            issued: Mutex::new(0),
        }
    }

    /// The configured difficulty.
    pub fn difficulty(&self) -> u8 {
        self.difficulty
    }

    /// Issue a new challenge at `now`; returns its wire encoding. At
    /// [`MAX_OUTSTANDING`], the oldest challenge is evicted to make room.
    pub fn issue(&self, rng: &mut impl RngCore, now: Timestamp) -> String {
        let challenge = Challenge::issue(self.difficulty, rng);
        let encoded = challenge.encode();
        let mut outstanding = self.outstanding.lock();
        outstanding.live.insert(encoded.clone());
        outstanding.order.push_back((now, encoded.clone()));
        while outstanding.order.len() > MAX_OUTSTANDING {
            if let Some((_, oldest)) = outstanding.order.pop_front() {
                outstanding.live.remove(&oldest);
            }
        }
        drop(outstanding);
        *self.issued.lock() += 1;
        encoded
    }

    /// Drop every challenge issued at least [`CHALLENGE_TTL_SECS`] before
    /// `now`; returns how many unredeemed ones went. A clock stepped
    /// backwards expires nothing early.
    pub fn prune(&self, now: Timestamp) -> usize {
        let mut outstanding = self.outstanding.lock();
        let mut dropped = 0;
        while outstanding.order.front().is_some_and(|(at, _)| now.since(*at) >= CHALLENGE_TTL_SECS)
        {
            if let Some((_, challenge)) = outstanding.order.pop_front() {
                dropped += usize::from(outstanding.live.remove(&challenge));
            }
        }
        dropped
    }

    /// Redeem a challenge + solution pair. Consumes the challenge on
    /// success; on failure the challenge remains outstanding only if it
    /// was valid but the solution was wrong (the client may retry).
    pub fn redeem(&self, encoded_challenge: &str, solution: u64) -> Result<(), PuzzleRejection> {
        let challenge =
            Challenge::decode(encoded_challenge).ok_or(PuzzleRejection::UnknownChallenge)?;
        // Reject encodings we never issued — including re-encodings at a
        // lower difficulty.
        {
            let outstanding = self.outstanding.lock();
            if !outstanding.live.contains(encoded_challenge) {
                return Err(PuzzleRejection::UnknownChallenge);
            }
        }
        if !challenge.verify(Solution { nonce: solution }) {
            return Err(PuzzleRejection::WrongSolution);
        }
        // Consumption must be atomic: whoever wins this `remove` redeemed
        // the challenge; a concurrent redeemer that passed the `contains`
        // check above loses here instead of double-spending the puzzle.
        if self.outstanding.lock().live.remove(encoded_challenge) {
            Ok(())
        } else {
            Err(PuzzleRejection::UnknownChallenge)
        }
    }

    /// Challenges issued so far.
    pub fn issued_count(&self) -> u64 {
        *self.issued.lock()
    }

    /// Challenges issued but not yet redeemed, pruned or evicted.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.lock().live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(8)
    }

    #[test]
    fn issue_solve_redeem_roundtrip() {
        let gate = PuzzleGate::new(4);
        let mut r = rng();
        let encoded = gate.issue(&mut r, Timestamp(0));
        let challenge = Challenge::decode(&encoded).unwrap();
        let (solution, _) = challenge.solve();
        assert_eq!(gate.redeem(&encoded, solution.nonce), Ok(()));
        assert_eq!(gate.outstanding_count(), 0);
        assert_eq!(gate.issued_count(), 1);
    }

    #[test]
    fn prune_drops_only_expired_challenges() {
        let gate = PuzzleGate::new(4);
        let mut r = rng();
        let t0 = Timestamp(10_000);
        let old = gate.issue(&mut r, t0);
        let redeemed = gate.issue(&mut r, t0);
        let (solution, _) = Challenge::decode(&redeemed).unwrap().solve();
        gate.redeem(&redeemed, solution.nonce).unwrap();
        let young = gate.issue(&mut r, Timestamp(t0.0 + 60));
        let expiry = Timestamp(t0.0 + CHALLENGE_TTL_SECS);
        assert_eq!(gate.prune(Timestamp(0)), 0, "a backward step expires nothing");
        assert_eq!(gate.prune(Timestamp(expiry.0 - 1)), 0);
        assert_eq!(gate.prune(expiry), 1, "only the unredeemed old one counts");
        assert_eq!(gate.outstanding_count(), 1);
        assert_eq!(gate.redeem(&old, 0), Err(PuzzleRejection::UnknownChallenge));
        let (solution, _) = Challenge::decode(&young).unwrap().solve();
        assert_eq!(gate.redeem(&young, solution.nonce), Ok(()));
    }

    #[test]
    fn issuing_past_capacity_evicts_the_oldest() {
        let gate = PuzzleGate::new(4);
        let mut r = rng();
        let issued: Vec<String> =
            (0..MAX_OUTSTANDING + 2).map(|_| gate.issue(&mut r, Timestamp(0))).collect();
        assert_eq!(gate.outstanding_count(), MAX_OUTSTANDING);
        for (i, encoded) in [0, 1, 2, MAX_OUTSTANDING + 1].map(|i| (i, &issued[i])) {
            let (solution, _) = Challenge::decode(encoded).unwrap().solve();
            let expected = if i < 2 { Err(PuzzleRejection::UnknownChallenge) } else { Ok(()) };
            assert_eq!(gate.redeem(encoded, solution.nonce), expected, "challenge {i}");
        }
    }

    #[test]
    fn solutions_cannot_be_replayed() {
        let gate = PuzzleGate::new(4);
        let mut r = rng();
        let encoded = gate.issue(&mut r, Timestamp(0));
        let (solution, _) = Challenge::decode(&encoded).unwrap().solve();
        assert!(gate.redeem(&encoded, solution.nonce).is_ok());
        assert_eq!(gate.redeem(&encoded, solution.nonce), Err(PuzzleRejection::UnknownChallenge));
    }

    #[test]
    fn self_issued_easy_puzzles_are_rejected() {
        let gate = PuzzleGate::new(16);
        let mut r = rng();
        // Attacker invents a difficulty-0 challenge and "solves" it.
        let fake = Challenge::issue(0, &mut r);
        assert_eq!(gate.redeem(&fake.encode(), 0), Err(PuzzleRejection::UnknownChallenge));
        assert_eq!(gate.redeem("garbage", 0), Err(PuzzleRejection::UnknownChallenge));
    }

    #[test]
    fn wrong_solution_keeps_challenge_outstanding() {
        let gate = PuzzleGate::new(8);
        let mut r = rng();
        let encoded = gate.issue(&mut r, Timestamp(0));
        let (solution, _) = Challenge::decode(&encoded).unwrap().solve();
        // `solve` returns the smallest nonce; 0 may coincide with it, so
        // use a definitely-wrong value below it when possible.
        let wrong = if solution.nonce == 0 { u64::MAX } else { solution.nonce - 1 };
        // u64::MAX is overwhelmingly unlikely to solve difficulty 8 with a
        // fixed seed; assert the expected failure deterministically.
        assert_eq!(gate.redeem(&encoded, wrong), Err(PuzzleRejection::WrongSolution));
        assert_eq!(gate.outstanding_count(), 1);
        assert!(gate.redeem(&encoded, solution.nonce).is_ok());
    }
}
