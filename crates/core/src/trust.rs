//! User trust factors.
//!
//! §2.1 proposes "allowing the users to rate not only the software but also
//! the feedback of other users in terms of helpfulness, trustworthiness and
//! correctness, creating a reliability profile for each user … used to
//! weight the ratings of different users". §3.2 fixes the dynamics:
//!
//! * new users start at trust **1** (also the minimum),
//! * the maximum is **100**,
//! * growth is capped at **+5 units per week** — "you can reach a maximum
//!   trust factor of 5 the first week you are a member, 10 the second
//!   week, and so on … preventing any user from gaining a high trust
//!   factor … without proving themselves worthy of it over a relatively
//!   long period of time."
//!
//! Trust rises when a user's comments collect positive remarks and falls on
//! negative remarks. Decreases are *not* rate-limited — the cap exists to
//! slow trust **gain** by attackers, not to protect them from losing it.

use softrep_storage::codec::{Decode, Encode, Reader, Writer};
use softrep_storage::error::StorageResult;

use crate::clock::Timestamp;

/// Minimum (and initial) trust factor.
pub const MIN_TRUST: f64 = 1.0;
/// Maximum trust factor.
pub const MAX_TRUST: f64 = 100.0;
/// Maximum trust gain per calendar week.
pub const WEEKLY_TRUST_GROWTH_CAP: f64 = 5.0;
/// Trust factor granted to the reserved bootstrap identities. Above a new
/// member (1) but far below a proven expert (up to 100): the imported
/// database is "more or less reliable" (§2.1).
pub const BOOTSTRAP_SEED_TRUST: f64 = 10.0;

/// Per-user trust state. The fields are private so that only this module
/// writes a trust value: every one stays in `[MIN_TRUST, MAX_TRUST]` and
/// grows by at most [`WEEKLY_TRUST_GROWTH_CAP`] a week.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustRecord {
    username: String,
    /// Current trust factor in `[MIN_TRUST, MAX_TRUST]`.
    trust: f64,
    /// Week index of the growth-accounting window.
    week: u64,
    /// Growth already consumed inside `week`.
    growth_this_week: f64,
}

impl TrustRecord {
    /// The current trust factor, in `[MIN_TRUST, MAX_TRUST]`.
    pub fn trust(&self) -> f64 {
        self.trust
    }
}

impl Encode for TrustRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.username);
        w.put_f64(self.trust);
        w.put_varint(self.week);
        w.put_f64(self.growth_this_week);
    }
}

impl Decode for TrustRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(TrustRecord {
            username: r.get_str()?,
            trust: r.get_f64()?,
            week: r.get_varint()?,
            growth_this_week: r.get_f64()?,
        })
    }
}

/// Pure trust-state transition logic, operating on [`TrustRecord`]s.
///
/// Stateless by design: the record lives in the reputation database and the
/// engine computes transitions, which keeps the arithmetic in one place and
/// property-testable in isolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrustEngine;

impl TrustEngine {
    /// The record for a freshly-registered user.
    pub fn new_user(username: &str, now: Timestamp) -> TrustRecord {
        TrustRecord {
            username: username.to_string(),
            trust: MIN_TRUST,
            week: now.week_index(),
            growth_this_week: 0.0,
        }
    }

    /// The record for a bootstrap seed identity (§2.1), which starts at
    /// [`BOOTSTRAP_SEED_TRUST`].
    pub fn seeded_user(username: &str, now: Timestamp) -> TrustRecord {
        TrustRecord { trust: BOOTSTRAP_SEED_TRUST, ..Self::new_user(username, now) }
    }

    /// Apply a trust delta at time `now`, enforcing the weekly growth cap
    /// and the `[MIN_TRUST, MAX_TRUST]` clamp. Returns the delta actually
    /// applied.
    pub fn apply_delta(record: &mut TrustRecord, delta: f64, now: Timestamp) -> f64 {
        let week = now.week_index();
        if week != record.week {
            // New accounting window; unused allowance does not carry over.
            record.week = week;
            record.growth_this_week = 0.0;
        }

        let effective = if delta > 0.0 {
            let allowance = (WEEKLY_TRUST_GROWTH_CAP - record.growth_this_week).max(0.0);
            delta.min(allowance)
        } else {
            delta
        };

        let before = record.trust;
        record.trust = (record.trust + effective).clamp(MIN_TRUST, MAX_TRUST);
        let applied = record.trust - before;
        if applied > 0.0 {
            record.growth_this_week += applied;
        }
        applied
    }

    /// The weight this user's votes carry in aggregation.
    pub fn weight(record: &TrustRecord) -> f64 {
        record.trust
    }

    /// Upper bound on the trust reachable by an account that registered in
    /// week 0 and is observed during week `weeks_active` (0-based):
    /// `1 + 5·(w+1)`, clamped to [`MAX_TRUST`] — the paper's "maximum trust
    /// factor of 5 the first week, 10 the second week" schedule (the quoted
    /// values treat the +1 initial unit as absorbed into the first week's
    /// allowance; we bound with the explicit initial unit).
    pub fn max_reachable(weeks_active: u64) -> f64 {
        (MIN_TRUST + WEEKLY_TRUST_GROWTH_CAP * (weeks_active as f64 + 1.0)).min(MAX_TRUST)
    }
}

/// Standard trust deltas used by the reputation database.
pub mod deltas {
    /// A positive remark on one of the user's comments.
    pub const POSITIVE_REMARK: f64 = 1.0;
    /// A negative remark on one of the user's comments.
    pub const NEGATIVE_REMARK: f64 = -1.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WEEK_SECS;
    use proptest::prelude::*;

    fn at_week(w: u64) -> Timestamp {
        Timestamp(w * WEEK_SECS)
    }

    #[test]
    fn seeded_users_start_at_the_bootstrap_trust() {
        assert_eq!(TrustEngine::seeded_user("s", at_week(2)).trust(), BOOTSTRAP_SEED_TRUST);
    }

    #[test]
    fn new_users_start_at_minimum() {
        let rec = TrustEngine::new_user("alice", at_week(3));
        assert_eq!(rec.trust, MIN_TRUST);
        assert_eq!(rec.week, 3);
    }

    #[test]
    fn growth_is_capped_at_five_per_week() {
        let mut rec = TrustEngine::new_user("a", at_week(0));
        for _ in 0..50 {
            TrustEngine::apply_delta(&mut rec, 1.0, at_week(0));
        }
        assert_eq!(rec.trust, MIN_TRUST + WEEKLY_TRUST_GROWTH_CAP);
    }

    #[test]
    fn allowance_resets_each_week_without_carryover() {
        let mut rec = TrustEngine::new_user("a", at_week(0));
        TrustEngine::apply_delta(&mut rec, 10.0, at_week(0));
        assert_eq!(rec.trust, 6.0); // 1 + 5
        TrustEngine::apply_delta(&mut rec, 10.0, at_week(1));
        assert_eq!(rec.trust, 11.0); // + 5
                                     // Skipping a week does not bank double allowance.
        TrustEngine::apply_delta(&mut rec, 100.0, at_week(3));
        assert_eq!(rec.trust, 16.0);
    }

    #[test]
    fn week_schedule_matches_paper() {
        // "a maximum trust factor of 5 the first week … 10 the second
        // week": the cap sequence grows by 5 per week.
        let mut rec = TrustEngine::new_user("a", at_week(0));
        for w in 0..25 {
            TrustEngine::apply_delta(&mut rec, f64::INFINITY, at_week(w));
        }
        assert_eq!(rec.trust, MAX_TRUST, "reaches the cap eventually");
        assert!(TrustEngine::max_reachable(0) <= 6.0);
        assert_eq!(TrustEngine::max_reachable(1_000), MAX_TRUST);
    }

    #[test]
    fn decreases_are_unlimited_but_floored() {
        let mut rec = TrustEngine::new_user("a", at_week(0));
        rec.trust = 50.0;
        let applied = TrustEngine::apply_delta(&mut rec, -200.0, at_week(0));
        assert_eq!(rec.trust, MIN_TRUST);
        assert_eq!(applied, -49.0);
    }

    #[test]
    fn decreases_do_not_consume_growth_allowance() {
        let mut rec = TrustEngine::new_user("a", at_week(0));
        TrustEngine::apply_delta(&mut rec, 2.0, at_week(0));
        TrustEngine::apply_delta(&mut rec, -1.0, at_week(0));
        // 3 units of allowance must remain.
        TrustEngine::apply_delta(&mut rec, 10.0, at_week(0));
        assert_eq!(rec.trust, MIN_TRUST + 2.0 - 1.0 + 3.0);
    }

    #[test]
    fn ceiling_is_one_hundred() {
        let mut rec = TrustEngine::new_user("a", at_week(0));
        rec.trust = 99.0;
        TrustEngine::apply_delta(&mut rec, 5.0, at_week(0));
        assert_eq!(rec.trust, MAX_TRUST);
        // Once at the ceiling, further gains apply zero.
        let applied = TrustEngine::apply_delta(&mut rec, 1.0, at_week(1));
        assert_eq!(applied, 0.0);
    }

    #[test]
    fn applied_delta_is_returned() {
        let mut rec = TrustEngine::new_user("a", at_week(0));
        assert_eq!(TrustEngine::apply_delta(&mut rec, 3.0, at_week(0)), 3.0);
        assert_eq!(TrustEngine::apply_delta(&mut rec, 3.0, at_week(0)), 2.0);
        assert_eq!(TrustEngine::apply_delta(&mut rec, 3.0, at_week(0)), 0.0);
    }

    proptest! {
        #[test]
        fn trust_roundtrip(user in "[a-z]{1,10}", trust in 1.0f64..100.0, week: u64, growth in 0.0f64..5.0) {
            let rec = TrustRecord { username: user, trust, week, growth_this_week: growth };
            prop_assert_eq!(TrustRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
        }

        #[test]
        fn invariants_hold_under_arbitrary_deltas(
            deltas in proptest::collection::vec((-10.0f64..10.0, 0u64..20), 0..200)
        ) {
            // DESIGN.md invariant 2: bounds + growth schedule, regardless
            // of the remark stream.
            let mut rec = TrustEngine::new_user("a", at_week(0));
            let mut max_week = 0u64;
            for (delta, week) in deltas {
                let week = max_week.max(week); // time moves forward
                max_week = week;
                TrustEngine::apply_delta(&mut rec, delta, at_week(week));
                prop_assert!(rec.trust >= MIN_TRUST);
                prop_assert!(rec.trust <= MAX_TRUST);
                prop_assert!(rec.trust <= TrustEngine::max_reachable(week));
                prop_assert!(rec.growth_this_week <= WEEKLY_TRUST_GROWTH_CAP + 1e-9);
            }
        }
    }
}
