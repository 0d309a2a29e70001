//! Persisted domain records and their binary codecs.
//!
//! The user record is deliberately *exactly* the schema §3.2 enumerates:
//! "a username, hashed password and a hashed e-mail address, as well as
//! timestamps of when the user signed up, and was last logged in" (plus the
//! activation state the registration flow needs before the account becomes
//! usable). No IP address, no plaintext e-mail — DESIGN.md invariant 4, and
//! the subject of experiment D8.

use softrep_storage::codec::{get_seq, put_seq, Decode, Encode, Reader, Writer};
use softrep_storage::error::{StorageError, StorageResult};

use crate::clock::Timestamp;

impl Encode for Timestamp {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
}
impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(Timestamp(r.get_varint()?))
    }
}

/// A registered account. See module docs for the privacy rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserRecord {
    /// Unique username — the only identity stored.
    pub username: String,
    /// Salted, iterated password hash (see `softrep_crypto::salted`),
    /// serialised in its text form.
    pub password_hash: String,
    /// Peppered e-mail digest, hex form; unique across accounts.
    pub email_digest: String,
    /// Signup instant.
    pub signed_up: Timestamp,
    /// Most recent login instant.
    pub last_login: Timestamp,
    /// Accounts start deactivated until the e-mailed token is redeemed.
    pub activated: bool,
    /// Pending activation token digest (cleared on activation). Stored
    /// hashed so a database breach cannot activate accounts.
    pub activation_digest: Option<String>,
    /// True for unlinkable pseudonym accounts (§5): no e-mail digest is
    /// stored and membership was proven by a blind-signed token instead.
    pub pseudonym: bool,
    /// Has this member already drawn their pseudonym credential? (One
    /// credential per verified member keeps Sybil economics intact.)
    pub pseudonym_credential_issued: bool,
}

impl Encode for UserRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.username);
        w.put_str(&self.password_hash);
        w.put_str(&self.email_digest);
        self.signed_up.encode(w);
        self.last_login.encode(w);
        w.put_bool(self.activated);
        self.activation_digest.encode(w);
        w.put_bool(self.pseudonym);
        w.put_bool(self.pseudonym_credential_issued);
    }
}

impl Decode for UserRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(UserRecord {
            username: r.get_str()?,
            password_hash: r.get_str()?,
            email_digest: r.get_str()?,
            signed_up: Timestamp::decode(r)?,
            last_login: Timestamp::decode(r)?,
            activated: r.get_bool()?,
            activation_digest: Option::decode(r)?,
            pseudonym: r.get_bool()?,
            pseudonym_credential_issued: r.get_bool()?,
        })
    }
}

/// Metadata for one executable, keyed by its content digest (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftwareRecord {
    /// Hex software ID (also the table key).
    pub software_id: String,
    /// Executable file name.
    pub file_name: String,
    /// File size in bytes.
    pub file_size: u64,
    /// Company name embedded in the binary, if present.
    pub company: Option<String>,
    /// Version string embedded in the binary, if present.
    pub version: Option<String>,
    /// When the server first learned of this executable.
    pub first_seen: Timestamp,
}

impl Encode for SoftwareRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.software_id);
        w.put_str(&self.file_name);
        w.put_varint(self.file_size);
        self.company.encode(w);
        self.version.encode(w);
        self.first_seen.encode(w);
    }
}

impl Decode for SoftwareRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(SoftwareRecord {
            software_id: r.get_str()?,
            file_name: r.get_str()?,
            file_size: r.get_varint()?,
            company: Option::decode(r)?,
            version: Option::decode(r)?,
            first_seen: Timestamp::decode(r)?,
        })
    }
}

/// Lowest and highest legal scores (§1: "grading it between 1 and 10").
pub const MIN_SCORE: u8 = 1;
/// See [`MIN_SCORE`].
pub const MAX_SCORE: u8 = 10;

/// Longest behaviour name, in bytes, that a vote, an evidence record, a
/// feed entry or a bootstrap entry may carry. Names are short tags such as
/// `popup_ads`; the bound keeps a software report inside one protocol
/// frame (the server's report renderer holds the arithmetic).
pub const MAX_BEHAVIOUR_LEN: usize = 64;

/// Most behaviour names one vote, evidence record, feed entry or bootstrap
/// entry may carry, and most behaviours (and most verified behaviours) one
/// software report lists, the most reported first. One constant bounds
/// both, so what one member can report is what a report can show.
///
/// With this cap and the other field bounds, a report's response body is
/// at most (every field at its bound, every byte escaped to a 6-byte
/// entity such as `&apos;`):
///
/// ```text
/// declaration, envelope, id, vote count, rating    < 300
/// file name, company, version   3 × 255 × 6 + 61   = 4,651
/// behaviours                    32 × (64 × 6 + 23) = 13,024
/// verified behaviours           32 × (64 × 6 + 41) = 13,600
/// each comment   4,096 × 6 text + 32 author + 2 × 20 digits + 46 tags = 24,694
/// ```
///
/// That is 31,575 + 24,694 × comments bytes: 278,515 at the server's
/// default of 10 comments per report, and within one 1 MiB protocol frame
/// (1,048,576 bytes) up to 41. A larger comment cap can make a report too
/// large for one frame; the server then answers `response-too-large`.
pub const MAX_BEHAVIOURS: usize = 32;

/// Longest file name, company or version, in bytes, that a software record
/// may carry: 255 is the usual file-system limit on one file name.
pub const MAX_SOFTWARE_FIELD_LEN: usize = 255;

/// One user's vote on one executable. Keyed by `(software_id, username)`,
/// which structurally enforces one vote per user per software — re-voting
/// overwrites (invariant 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteRecord {
    /// Voting user.
    pub username: String,
    /// Target software (hex id).
    pub software_id: String,
    /// Score in `MIN_SCORE..=MAX_SCORE`.
    pub score: u8,
    /// Behaviours the voter observed (`popup_ads`, `tracking`, …).
    pub behaviours: Vec<String>,
    /// Submission instant.
    pub cast_at: Timestamp,
}

impl Encode for VoteRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.username);
        w.put_str(&self.software_id);
        w.put_u8(self.score);
        put_seq(w, &self.behaviours);
        self.cast_at.encode(w);
    }
}

impl Decode for VoteRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let rec = VoteRecord {
            username: r.get_str()?,
            software_id: r.get_str()?,
            score: r.get_u8()?,
            behaviours: get_seq(r)?,
            cast_at: Timestamp::decode(r)?,
        };
        if !(MIN_SCORE..=MAX_SCORE).contains(&rec.score) {
            return Err(StorageError::Decode(format!("vote score {} out of range", rec.score)));
        }
        Ok(rec)
    }
}

/// Publication state of a comment (see [`crate::moderation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommentStatus {
    /// Visible to all users.
    Published,
    /// Awaiting administrator review.
    PendingReview,
    /// Rejected by an administrator.
    Rejected,
}

impl Encode for CommentStatus {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            CommentStatus::Published => 0,
            CommentStatus::PendingReview => 1,
            CommentStatus::Rejected => 2,
        });
    }
}

impl Decode for CommentStatus {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        match r.get_u8()? {
            0 => Ok(CommentStatus::Published),
            1 => Ok(CommentStatus::PendingReview),
            2 => Ok(CommentStatus::Rejected),
            other => Err(StorageError::Decode(format!("invalid comment status {other}"))),
        }
    }
}

/// A free-text comment on an executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommentRecord {
    /// Server-assigned id.
    pub id: u64,
    /// Author username.
    pub author: String,
    /// Target software (hex id).
    pub software_id: String,
    /// Comment text.
    pub text: String,
    /// Submission instant.
    pub written_at: Timestamp,
    /// Publication state.
    pub status: CommentStatus,
}

impl Encode for CommentRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.id);
        w.put_str(&self.author);
        w.put_str(&self.software_id);
        w.put_str(&self.text);
        self.written_at.encode(w);
        self.status.encode(w);
    }
}

impl Decode for CommentRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(CommentRecord {
            id: r.get_varint()?,
            author: r.get_str()?,
            software_id: r.get_str()?,
            text: r.get_str()?,
            written_at: Timestamp::decode(r)?,
            status: CommentStatus::decode(r)?,
        })
    }
}

/// A remark on a comment: "positive for a good, clear and useful comment or
/// negative for a coloured, non-sense or meaningless comment" (§3.2).
/// Keyed by `(comment_id, rater)`: one remark per user per comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemarkRecord {
    /// Remarking user.
    pub rater: String,
    /// Target comment.
    pub comment_id: u64,
    /// Positive or negative.
    pub positive: bool,
    /// Submission instant.
    pub made_at: Timestamp,
}

impl Encode for RemarkRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.rater);
        w.put_varint(self.comment_id);
        w.put_bool(self.positive);
        self.made_at.encode(w);
    }
}

impl Decode for RemarkRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(RemarkRecord {
            rater: r.get_str()?,
            comment_id: r.get_varint()?,
            positive: r.get_bool()?,
            made_at: Timestamp::decode(r)?,
        })
    }
}

/// The published aggregate rating of one executable, recomputed by the
/// 24 h batch job (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct RatingRecord {
    /// Target software (hex id).
    pub software_id: String,
    /// Trust-weighted mean score, 1.0–10.0.
    pub rating: f64,
    /// Number of votes aggregated.
    pub vote_count: u64,
    /// Sum of voter trust weights (the rating's evidence mass).
    pub trust_mass: f64,
    /// Behaviours reported by voters, with report counts, most-reported
    /// first.
    pub behaviours: Vec<(String, u64)>,
    /// When the batch job produced this record.
    pub computed_at: Timestamp,
}

impl Encode for RatingRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.software_id);
        w.put_f64(self.rating);
        w.put_varint(self.vote_count);
        w.put_f64(self.trust_mass);
        put_seq(w, &self.behaviours);
        self.computed_at.encode(w);
    }
}

impl Decode for RatingRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(RatingRecord {
            software_id: r.get_str()?,
            rating: r.get_f64()?,
            vote_count: r.get_varint()?,
            trust_mass: r.get_f64()?,
            behaviours: get_seq(r)?,
            computed_at: Timestamp::decode(r)?,
        })
    }
}

impl RatingRecord {
    /// Canonical encoding of the rating's *mathematical* content —
    /// everything except `computed_at`, which records when a batch touched
    /// the record, not what it computed. The incremental engine leaves
    /// untouched titles with their original timestamp while the full batch
    /// re-stamps everything, so the equivalence harness
    /// (`tests/properties.rs`, `tests/golden_aggregation.rs`) compares
    /// these bytes: bit-exact on `rating`, `vote_count`, `trust_mass` and
    /// the behaviour tallies.
    pub fn content_bytes(&self) -> Vec<u8> {
        let mut normalized = self.clone();
        normalized.computed_at = Timestamp(0);
        normalized.encode_to_bytes().to_vec()
    }
}

/// Persisted per-software aggregation accumulators: the running
/// `(Σ w·s, Σ w)` pair behind the published rating, maintained by both
/// aggregation paths. A restart reloads these (and the published
/// [`RatingRecord`]s) instead of forcing a cold full scan of every vote.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumulatorRecord {
    /// Target software (hex id, also the table key).
    pub software_id: String,
    /// Σ (trust weight × score) over the title's votes.
    pub score_mass: f64,
    /// Σ trust weight over the title's votes.
    pub weight_mass: f64,
    /// Number of votes folded into the masses.
    pub vote_count: u64,
    /// Batch instant that last refreshed this accumulator.
    pub updated_at: Timestamp,
}

impl Encode for AccumulatorRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.software_id);
        w.put_f64(self.score_mass);
        w.put_f64(self.weight_mass);
        w.put_varint(self.vote_count);
        self.updated_at.encode(w);
    }
}

impl Decode for AccumulatorRecord {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(AccumulatorRecord {
            software_id: r.get_str()?,
            score_mass: r.get_f64()?,
            weight_mass: r.get_f64()?,
            vote_count: r.get_varint()?,
            updated_at: Timestamp::decode(r)?,
        })
    }
}

/// Per-user trust state (see [`crate::trust`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrustRecord {
    /// Username.
    pub username: String,
    /// Current trust factor in `[MIN_TRUST, MAX_TRUST]`.
    pub trust: f64,
    /// Week index of the growth-accounting window.
    pub week: u64,
    /// Growth already consumed inside `week`.
    pub growth_this_week: f64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn user_record_roundtrip() {
        let rec = UserRecord {
            username: "alice".into(),
            password_hash: "1000$ab$cd".into(),
            email_digest: "ff".repeat(32),
            signed_up: Timestamp(100),
            last_login: Timestamp(200),
            activated: true,
            activation_digest: None,
            pseudonym: false,
            pseudonym_credential_issued: true,
        };
        assert_eq!(UserRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
    }

    #[test]
    fn user_record_schema_is_privacy_minimal() {
        // Compile-time-ish check that the record carries no IP/e-mail
        // field: construct from the full field list.
        let rec = UserRecord {
            username: String::new(),
            password_hash: String::new(),
            email_digest: String::new(),
            signed_up: Timestamp::ZERO,
            last_login: Timestamp::ZERO,
            activated: false,
            activation_digest: Some(String::new()),
            pseudonym: false,
            pseudonym_credential_issued: false,
        };
        // Encoded form must not exceed the fields above (no hidden state).
        let bytes = rec.encode_to_bytes();
        assert!(bytes.len() < 32, "record is exactly the §3.2 schema");
    }

    #[test]
    fn vote_record_rejects_out_of_range_scores() {
        let mut rec = VoteRecord {
            username: "u".into(),
            software_id: "s".into(),
            score: 5,
            behaviours: vec!["popup_ads".into()],
            cast_at: Timestamp(1),
        };
        let ok = rec.encode_to_bytes();
        assert!(VoteRecord::decode_from_bytes(&ok).is_ok());

        rec.score = 0;
        assert!(VoteRecord::decode_from_bytes(&rec.encode_to_bytes()).is_err());
        rec.score = 11;
        assert!(VoteRecord::decode_from_bytes(&rec.encode_to_bytes()).is_err());
    }

    #[test]
    fn comment_statuses_roundtrip() {
        for status in
            [CommentStatus::Published, CommentStatus::PendingReview, CommentStatus::Rejected]
        {
            let rec = CommentRecord {
                id: 7,
                author: "a".into(),
                software_id: "s".into(),
                text: "useful".into(),
                written_at: Timestamp(9),
                status,
            };
            assert_eq!(CommentRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
        }
    }

    #[test]
    fn rating_record_roundtrip() {
        let rec = RatingRecord {
            software_id: "abc".into(),
            rating: 7.25,
            vote_count: 42,
            trust_mass: 99.5,
            behaviours: vec![("popup_ads".into(), 12), ("tracking".into(), 3)],
            computed_at: Timestamp(86_400),
        };
        assert_eq!(RatingRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
    }

    #[test]
    fn rating_content_bytes_ignore_only_computed_at() {
        let rec = RatingRecord {
            software_id: "abc".into(),
            rating: 7.25,
            vote_count: 42,
            trust_mass: 99.5,
            behaviours: vec![("popup_ads".into(), 12)],
            computed_at: Timestamp(86_400),
        };
        let restamped = RatingRecord { computed_at: Timestamp(999), ..rec.clone() };
        assert_eq!(rec.content_bytes(), restamped.content_bytes());
        let drifted = RatingRecord { rating: 7.25 + f64::EPSILON * 8.0, ..rec.clone() };
        assert_ne!(rec.content_bytes(), drifted.content_bytes(), "one ulp of drift is caught");
        let fewer = RatingRecord { vote_count: 41, ..rec };
        assert_ne!(fewer.content_bytes(), restamped.content_bytes());
    }

    #[test]
    fn accumulator_roundtrip() {
        let rec = AccumulatorRecord {
            software_id: "ab".repeat(20),
            score_mass: 123.456,
            weight_mass: 41.0,
            vote_count: 17,
            updated_at: Timestamp(86_400 * 3),
        };
        assert_eq!(AccumulatorRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
    }

    proptest! {
        #[test]
        fn vote_roundtrip(
            user in "[a-z]{1,10}",
            sw in "[0-9a-f]{40}",
            score in 1u8..=10,
            behaviours in proptest::collection::vec("[a-z_]{1,12}", 0..4),
            ts in 0u64..1_000_000,
        ) {
            let rec = VoteRecord {
                username: user, software_id: sw, score, behaviours, cast_at: Timestamp(ts),
            };
            prop_assert_eq!(VoteRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
        }

        #[test]
        fn remark_roundtrip(rater in "[a-z]{1,10}", id: u64, positive: bool, ts: u64) {
            let rec = RemarkRecord { rater, comment_id: id, positive, made_at: Timestamp(ts) };
            prop_assert_eq!(RemarkRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
        }

        #[test]
        fn trust_roundtrip(user in "[a-z]{1,10}", trust in 1.0f64..100.0, week: u64, growth in 0.0f64..5.0) {
            let rec = TrustRecord { username: user, trust, week, growth_this_week: growth };
            prop_assert_eq!(TrustRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
        }

        #[test]
        fn software_roundtrip(
            id in "[0-9a-f]{40}",
            name in "[a-z0-9_.]{1,16}",
            size: u64,
            company in proptest::option::of("[A-Za-z ]{1,12}"),
            version in proptest::option::of("[0-9.]{1,6}"),
        ) {
            let rec = SoftwareRecord {
                software_id: id, file_name: name, file_size: size,
                company, version, first_seen: Timestamp(7),
            };
            prop_assert_eq!(SoftwareRecord::decode_from_bytes(&rec.encode_to_bytes()).unwrap(), rec);
        }
    }
}
