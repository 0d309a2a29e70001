//! Trust-weighted rating aggregation.
//!
//! §3.2: "Software ratings are calculated at fixed points in time
//! (currently once in every 24-hour period). During this work users' trust
//! factors are taken into consideration when calculating the final score
//! for a particular software." Vendor ratings are "simply … the average
//! score of all software belonging to the particular vendor" (§3.2/3.3).
//!
//! All functions here are pure and deterministic (DESIGN.md invariant 5):
//! given the same vote set and trust snapshot they produce bit-identical
//! records, which is what makes the 24 h batch model reproducible.

use std::collections::BTreeMap;

use crate::clock::Timestamp;
use crate::model::{RatingRecord, VoteRecord};

/// Interval between rating recomputations (the paper's 24 h).
pub const AGGREGATION_INTERVAL_SECS: u64 = crate::clock::DAY_SECS;

/// Compute the trust-weighted mean of `(score, weight)` pairs.
///
/// Returns `None` when there are no votes or no positive weight: the paper
/// deliberately shows "no rating yet" rather than a fabricated number.
pub fn weighted_mean(pairs: impl IntoIterator<Item = (u8, f64)>) -> Option<f64> {
    let mut score_mass = 0.0;
    let mut weight_mass = 0.0;
    for (score, weight) in pairs {
        debug_assert!((1..=10).contains(&score), "scores validated at the edge");
        let weight = weight.max(0.0);
        score_mass += f64::from(score) * weight;
        weight_mass += weight;
    }
    (weight_mass > 0.0).then(|| score_mass / weight_mass)
}

/// Unweighted mean — the baseline aggregation that experiment D2 contrasts
/// with trust weighting.
pub fn unweighted_mean(scores: impl IntoIterator<Item = u8>) -> Option<f64> {
    weighted_mean(scores.into_iter().map(|s| (s, 1.0)))
}

/// Aggregate all `votes` for one software into a published rating record.
///
/// `trust_of` supplies the trust snapshot (username → trust factor) taken
/// at batch time; votes from unknown users default to the minimum weight
/// rather than being dropped, mirroring how a concurrent deletion would be
/// handled in the deployed system.
pub fn aggregate_software(
    software_id: &str,
    votes: &[VoteRecord],
    trust_of: impl Fn(&str) -> Option<f64>,
    now: Timestamp,
) -> Option<RatingRecord> {
    aggregate_software_with_masses(software_id, votes, trust_of, now).map(|(rating, _)| rating)
}

/// [`aggregate_software`], also returning the raw score mass (`Σ w·s`).
///
/// The published record carries the trust mass but only the *quotient* of
/// the score mass; the incremental engine persists both masses verbatim in
/// its accumulator table, so they must come from this exact summation
/// rather than being reconstructed as `rating × trust_mass` (which can
/// differ in the last ulp).
pub fn aggregate_software_with_masses(
    software_id: &str,
    votes: &[VoteRecord],
    trust_of: impl Fn(&str) -> Option<f64>,
    now: Timestamp,
) -> Option<(RatingRecord, f64)> {
    if votes.is_empty() {
        return None;
    }
    let mut score_mass = 0.0;
    let mut trust_mass = 0.0;
    let mut behaviour_counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut names: Vec<&str> = Vec::new();

    for vote in votes {
        debug_assert_eq!(vote.software_id, software_id);
        let weight = trust_of(&vote.username).unwrap_or(crate::trust::MIN_TRUST).max(0.0);
        score_mass += f64::from(vote.score) * weight;
        trust_mass += weight;
        // One member, one voice: a name repeated inside one vote counts
        // once (votes stored before the db refused repeats may hold some).
        names.clear();
        names.extend(vote.behaviours.iter().map(String::as_str));
        names.sort_unstable();
        names.dedup();
        for name in &names {
            *behaviour_counts.entry(name).or_insert(0) += 1;
        }
    }
    if trust_mass <= 0.0 {
        return None;
    }

    // Deterministic ordering: count desc, then name asc (BTreeMap already
    // gives name order; stable sort preserves it inside equal counts).
    let mut behaviours: Vec<(String, u64)> =
        behaviour_counts.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    behaviours.sort_by_key(|(_, count)| std::cmp::Reverse(*count));

    let record = RatingRecord {
        software_id: software_id.to_string(),
        rating: score_mass / trust_mass,
        vote_count: votes.len() as u64,
        trust_mass,
        behaviours,
        computed_at: now,
    };
    Some((record, score_mass))
}

/// Derive a vendor's rating as the mean over its software ratings (§3.3).
pub fn vendor_rating(software_ratings: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u64;
    for r in software_ratings {
        sum += r;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Decide whether a batch run is due: the previous run was `last` (or
/// `None` before the first run).
///
/// A clock stepped *backwards* past `last` (NTP correction, VM restore,
/// operator mistake) must not wedge the schedule: with `now < last`,
/// `now.since(last)` saturates to 0 and the naive rule would wait until
/// the clock re-reaches `last + 24 h` — potentially years. If `last` is
/// more than one interval in the future we declare the batch due, which
/// re-stamps `last = now` and re-anchors the schedule to the new clock.
pub fn aggregation_due(last: Option<Timestamp>, now: Timestamp) -> bool {
    match last {
        None => true,
        Some(last) => {
            now.since(last) >= AGGREGATION_INTERVAL_SECS
                || last.since(now) >= AGGREGATION_INTERVAL_SECS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vote(user: &str, sw: &str, score: u8, behaviours: &[&str]) -> VoteRecord {
        VoteRecord {
            username: user.into(),
            software_id: sw.into(),
            score,
            behaviours: behaviours.iter().map(|s| s.to_string()).collect(),
            cast_at: Timestamp(0),
        }
    }

    #[test]
    fn weighted_mean_empty_is_none() {
        assert_eq!(weighted_mean([]), None);
        assert_eq!(unweighted_mean([]), None);
        assert_eq!(weighted_mean([(5, 0.0)]), None, "zero total weight yields no rating");
    }

    #[test]
    fn weighted_mean_matches_hand_computation() {
        // Expert (trust 50) says 2; two novices (trust 1) say 10.
        let m = weighted_mean([(2, 50.0), (10, 1.0), (10, 1.0)]).unwrap();
        let expected = (2.0 * 50.0 + 10.0 + 10.0) / 52.0;
        assert!((m - expected).abs() < 1e-12);
        assert!(m < 3.0, "the expert dominates");
    }

    #[test]
    fn unweighted_mean_is_plain_average() {
        assert_eq!(unweighted_mean([2, 10, 10]).unwrap(), 22.0 / 3.0);
    }

    #[test]
    fn aggregate_collects_behaviours_most_reported_first() {
        let votes = vec![
            vote("a", "sw", 3, &["popup_ads", "tracking"]),
            vote("b", "sw", 4, &["popup_ads"]),
            vote("c", "sw", 2, &["popup_ads", "bad_uninstall"]),
        ];
        let rec = aggregate_software("sw", &votes, |_| Some(1.0), Timestamp(7)).unwrap();
        assert_eq!(rec.vote_count, 3);
        assert_eq!(rec.behaviours[0], ("popup_ads".to_string(), 3));
        // Ties break alphabetically.
        assert_eq!(rec.behaviours[1], ("bad_uninstall".to_string(), 1));
        assert_eq!(rec.behaviours[2], ("tracking".to_string(), 1));
        assert_eq!(rec.computed_at, Timestamp(7));
    }

    /// One member, one voice: a name repeated inside one vote counts once,
    /// so one voter cannot outrank two.
    #[test]
    fn a_behaviour_counts_once_per_vote() {
        let votes = vec![
            vote("a", "sw", 3, &["spyware", "spyware", "spyware"]),
            vote("b", "sw", 3, &["popup_ads"]),
            vote("c", "sw", 3, &["popup_ads"]),
        ];
        let rec = aggregate_software("sw", &votes, |_| Some(1.0), Timestamp(0)).unwrap();
        assert_eq!(rec.behaviours, vec![("popup_ads".to_string(), 2), ("spyware".to_string(), 1)]);
    }

    #[test]
    fn aggregate_uses_trust_snapshot() {
        let votes = vec![vote("expert", "sw", 2, &[]), vote("novice", "sw", 10, &[])];
        let rec = aggregate_software(
            "sw",
            &votes,
            |u| Some(if u == "expert" { 80.0 } else { 1.0 }),
            Timestamp(0),
        )
        .unwrap();
        assert!(rec.rating < 2.5);
        assert_eq!(rec.trust_mass, 81.0);
    }

    #[test]
    fn unknown_users_default_to_minimum_weight() {
        let votes = vec![vote("ghost", "sw", 8, &[])];
        let rec = aggregate_software("sw", &votes, |_| None, Timestamp(0)).unwrap();
        assert_eq!(rec.rating, 8.0);
        assert_eq!(rec.trust_mass, crate::trust::MIN_TRUST);
    }

    #[test]
    fn no_votes_no_record() {
        assert!(aggregate_software("sw", &[], |_| Some(1.0), Timestamp(0)).is_none());
    }

    #[test]
    fn vendor_rating_is_mean_of_software_ratings() {
        assert_eq!(vendor_rating([4.0, 6.0, 8.0]).unwrap(), 6.0);
        assert_eq!(vendor_rating([]), None);
        assert_eq!(vendor_rating([7.5]).unwrap(), 7.5);
    }

    #[test]
    fn aggregation_schedule_is_24h() {
        assert!(aggregation_due(None, Timestamp(0)));
        let last = Timestamp(1_000);
        assert!(!aggregation_due(Some(last), Timestamp(1_000 + AGGREGATION_INTERVAL_SECS - 1)));
        assert!(aggregation_due(Some(last), Timestamp(1_000 + AGGREGATION_INTERVAL_SECS)));
    }

    #[test]
    fn aggregation_due_survives_clock_step_backwards() {
        // A backward step smaller than one interval delays the next batch
        // but never wedges it…
        let last = Timestamp(10 * AGGREGATION_INTERVAL_SECS);
        let slipped = Timestamp(10 * AGGREGATION_INTERVAL_SECS - 3_600);
        assert!(!aggregation_due(Some(last), slipped));
        assert!(aggregation_due(Some(last), Timestamp(11 * AGGREGATION_INTERVAL_SECS)));
        // …while a step back past a full interval (clock reset to the
        // epoch, say) re-anchors immediately instead of waiting for the
        // clock to catch back up to `last`.
        assert!(aggregation_due(Some(last), Timestamp(0)));
        // Exactly one interval behind is the re-anchor boundary.
        assert!(aggregation_due(Some(last), Timestamp(9 * AGGREGATION_INTERVAL_SECS)));
    }

    #[test]
    fn aggregation_is_deterministic() {
        // Invariant 5: same inputs, bit-identical output.
        let votes = vec![
            vote("a", "sw", 3, &["x", "y"]),
            vote("b", "sw", 9, &["y"]),
            vote("c", "sw", 6, &[]),
        ];
        let trust = |u: &str| {
            Some(match u {
                "a" => 10.0,
                "b" => 2.5,
                _ => 1.0,
            })
        };
        let r1 = aggregate_software("sw", &votes, trust, Timestamp(5)).unwrap();
        let r2 = aggregate_software("sw", &votes, trust, Timestamp(5)).unwrap();
        assert_eq!(r1, r2);
        use softrep_storage::codec::Encode;
        assert_eq!(r1.encode_to_bytes(), r2.encode_to_bytes());
    }

    proptest! {
        #[test]
        fn weighted_mean_stays_in_score_range(
            pairs in proptest::collection::vec((1u8..=10, 0.01f64..100.0), 1..50)
        ) {
            let m = weighted_mean(pairs).unwrap();
            prop_assert!((1.0..=10.0).contains(&m));
        }

        #[test]
        fn equal_weights_reduce_to_unweighted(scores in proptest::collection::vec(1u8..=10, 1..50)) {
            let w = weighted_mean(scores.iter().map(|&s| (s, 3.7))).unwrap();
            let u = unweighted_mean(scores.iter().copied()).unwrap();
            prop_assert!((w - u).abs() < 1e-9);
        }

        #[test]
        fn raising_one_weight_pulls_mean_toward_that_score(
            scores in proptest::collection::vec(1u8..=10, 2..20),
            idx in 0usize..20,
        ) {
            let idx = idx % scores.len();
            let target = f64::from(scores[idx]);
            let base = weighted_mean(scores.iter().map(|&s| (s, 1.0))).unwrap();
            let boosted = weighted_mean(
                scores.iter().enumerate().map(|(i, &s)| (s, if i == idx { 50.0 } else { 1.0 }))
            ).unwrap();
            // Boosted mean is at least as close to the boosted score.
            prop_assert!((boosted - target).abs() <= (base - target).abs() + 1e-9);
        }
    }
}
