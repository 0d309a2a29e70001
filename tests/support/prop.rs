//! Hand-rolled property-testing support: a seeded generator, a workload
//! interpreter, and a ddmin-style shrinker.
//!
//! The workspace deliberately vendors offline stand-ins instead of pulling
//! real crates, and the vendored `proptest` stub only covers the closed-form
//! strategies the unit tests use. Randomized *stateful* workloads (sequences
//! of database operations) need a generator and a shrinker, so this module
//! rolls a minimal pair by hand:
//!
//! * [`SplitMix64`] — a tiny, well-known seedable generator; printing its
//!   seed on failure makes every counterexample replayable with
//!   `SOFTREP_PROP_SEED=<seed> cargo test`.
//! * [`gen_workload`] — random [`Op`] sequences over small fixed pools of
//!   users and software titles.
//! * [`shrink`] — greedy chunk removal (delta debugging): repeatedly drop
//!   halves/quarters/… of the failing workload while it keeps failing, so
//!   the printed counterexample is near-minimal.

use softrep_core::clock::{Timestamp, DAY_SECS};
use softrep_core::db::ReputationDb;
use softrep_core::moderation::{ModerationDecision, ModerationPolicy};
use softrep_crypto::salted::SecretPepper;
use softrep_storage::Store;

use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Arc;

/// SplitMix64: 64-bit seedable generator (Steele et al., used to seed
/// xoshiro in the literature). Tiny state, no dependencies, good enough
/// for test-case generation.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Users available to a workload (small pool: collisions — re-votes,
/// repeated remarks, trust churn on the same account — are the interesting
/// cases).
pub const USERS: [&str; 6] = ["alice", "bob", "carol", "dave", "erin", "frank"];

/// Software pool size.
pub const TITLES: usize = 8;

/// The `i`-th software id in the pool (40 hex chars, like a SHA-1).
pub fn title(i: usize) -> String {
    format!("{i:040x}")
}

/// One step of a randomized workload. Every variant is deterministic given
/// its fields, so a `Vec<Op>` replays identically on any database.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `user` votes `score` on `title`, reporting `behaviours`.
    Vote { user: usize, title: usize, score: u8, behaviours: Vec<String> },
    /// `user` comments on `title`.
    Comment { user: usize, title: usize },
    /// `user` remarks (positive/negative) on the `nth` comment created so
    /// far — may target an unpublished or own comment, which must fail
    /// identically on both databases.
    Remark { user: usize, nth: usize, positive: bool },
    /// Direct trust adjustment (the server does this for analyzer
    /// agreement and administrative corrections).
    AdjustTrust { user: usize, delta_half_points: i64 },
    /// Administrator decides the oldest pending comment.
    Moderate { approve: bool },
    /// Advance simulated time by `days` (drives weekly trust caps and the
    /// 24 h schedule).
    AdvanceDays { days: u64 },
    /// Run an aggregation batch on both databases and compare.
    Aggregate,
}

/// Generate a workload of `len` ops.
pub fn gen_workload(rng: &mut SplitMix64, len: usize) -> Vec<Op> {
    let behaviours_pool = ["popup_ads", "tracking", "bad_uninstall", "toolbar"];
    let mut ops = Vec::with_capacity(len);
    let mut comments_created = 0usize;
    for _ in 0..len {
        let op = match rng.below(100) {
            // Votes dominate: they are the aggregation input.
            0..=39 => Op::Vote {
                user: rng.below(USERS.len() as u64) as usize,
                title: rng.below(TITLES as u64) as usize,
                score: (rng.below(10) + 1) as u8,
                behaviours: {
                    // Up to two draws; a repeated draw is dropped, because a
                    // vote names each behaviour at most once.
                    let n = rng.below(3) as usize;
                    let mut names: Vec<String> = Vec::with_capacity(n);
                    for _ in 0..n {
                        let name =
                            behaviours_pool[rng.below(behaviours_pool.len() as u64) as usize];
                        if !names.iter().any(|b| b == name) {
                            names.push(name.to_string());
                        }
                    }
                    names
                },
            },
            40..=54 => {
                comments_created += 1;
                Op::Comment {
                    user: rng.below(USERS.len() as u64) as usize,
                    title: rng.below(TITLES as u64) as usize,
                }
            }
            55..=69 if comments_created > 0 => Op::Remark {
                user: rng.below(USERS.len() as u64) as usize,
                nth: rng.below(comments_created as u64) as usize,
                positive: rng.chance(60),
            },
            70..=79 => Op::AdjustTrust {
                user: rng.below(USERS.len() as u64) as usize,
                // −3.0 .. +8.0 in half-point steps: crosses the clamp floor
                // and the weekly growth cap.
                delta_half_points: rng.below(23) as i64 - 6,
            },
            80..=86 => Op::Moderate { approve: rng.chance(70) },
            87..=93 => Op::AdvanceDays { days: rng.below(3) + 1 },
            _ => Op::Aggregate,
        };
        ops.push(op);
    }
    // Always end on a comparison so every workload checks equivalence at
    // least once.
    ops.push(Op::Aggregate);
    ops
}

/// Which aggregation path a database under test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    Incremental,
    Full,
}

/// A database plus the interpreter state needed to replay a workload.
pub struct Replay {
    pub db: ReputationDb,
    pub mode: AggMode,
    /// Comment ids in creation order (`Op::Remark.nth` indexes this).
    comment_ids: Vec<u64>,
}

impl Replay {
    /// Fresh in-memory database with the user/software pools installed.
    /// `PreApproval` moderation so `Op::Moderate` has a queue to work on.
    pub fn new(mode: AggMode, seed: u64) -> Self {
        let db = ReputationDb::with_moderation(
            Arc::new(Store::in_memory()),
            SecretPepper::new(b"prop-pepper".to_vec()),
            ModerationPolicy::PreApproval,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Timestamp(0);
        for (i, user) in USERS.iter().enumerate() {
            let email = format!("{user}@example.test");
            let token = db
                .register_user(user, "hunter2", &email, t0, &mut rng)
                .expect("pool user registers");
            db.activate_user(user, &token).expect("pool user activates");
            // Stagger initial trust so weights differ from the start.
            db.adjust_trust(user, i as f64, t0).expect("initial trust");
        }
        for i in 0..TITLES {
            db.register_software(
                &title(i),
                &format!("app{i}.exe"),
                1024 + i as u64,
                None,
                None,
                t0,
            )
            .expect("pool software registers");
        }
        Replay { db, mode, comment_ids: Vec::new() }
    }

    /// Apply one op at simulated time `now`. Domain errors (self-remark,
    /// remark on a pending comment, no pending comment to moderate) are
    /// swallowed — the point is that both databases take the *same* path,
    /// which the caller checks by comparing end states.
    pub fn apply(&mut self, op: &Op, now: Timestamp) {
        match op {
            Op::Vote { user, title: t, score, behaviours } => {
                self.db
                    .submit_vote(USERS[*user], &title(*t), *score, behaviours.clone(), now)
                    .expect("pool votes are always valid");
            }
            Op::Comment { user, title: t } => {
                let id = self
                    .db
                    .submit_comment(USERS[*user], &title(*t), "observed behaviour", now)
                    .expect("pool comments are always valid");
                self.comment_ids.push(id);
            }
            Op::Remark { user, nth, positive } => {
                if let Some(&id) = self.comment_ids.get(*nth) {
                    // May fail (pending comment, self-remark): identically
                    // on both databases.
                    let _ = self.db.remark_comment(USERS[*user], id, *positive, now);
                }
            }
            Op::AdjustTrust { user, delta_half_points } => {
                self.db
                    .adjust_trust(USERS[*user], *delta_half_points as f64 * 0.5, now)
                    .expect("trust adjustment never errors for known users");
            }
            Op::Moderate { approve } => {
                let pending = self.db.pending_comments().expect("pending scan");
                if let Some(first) = pending.first() {
                    let decision = if *approve {
                        ModerationDecision::Approve
                    } else {
                        ModerationDecision::Reject
                    };
                    self.db.moderate_comment(first.id, decision, now).expect("moderation applies");
                }
            }
            Op::AdvanceDays { .. } => {}
            Op::Aggregate => {
                match self.mode {
                    AggMode::Incremental => self.db.force_aggregation_incremental(now),
                    AggMode::Full => self.db.force_aggregation_full(now),
                }
                .expect("aggregation never errors");
            }
        }
    }
}

/// Replay `ops` against an incremental and a full database in lockstep and
/// return a divergence description, or `None` if the rating tables agree
/// (content bytes, `computed_at` excluded) at every `Op::Aggregate`.
pub fn run_equivalence_case(seed: u64, ops: &[Op]) -> Option<String> {
    let mut incremental = Replay::new(AggMode::Incremental, seed);
    let mut full = Replay::new(AggMode::Full, seed);
    let mut now = Timestamp(1_000);
    for (step, op) in ops.iter().enumerate() {
        incremental.apply(op, now);
        full.apply(op, now);
        if let Op::Aggregate = op {
            if let Some(diff) = diverged(&incremental.db, &full.db) {
                return Some(format!("step {step}: {diff}"));
            }
        }
        now = match op {
            Op::AdvanceDays { days } => Timestamp(now.0 + days * DAY_SECS),
            // Every op takes a little wall time so records carry distinct
            // timestamps.
            _ => Timestamp(now.0 + 17),
        };
    }
    None
}

/// Compare the two databases' full rating tables by content bytes.
pub fn diverged(incremental: &ReputationDb, full: &ReputationDb) -> Option<String> {
    let a = incremental.ratings_snapshot().expect("snapshot A");
    let b = full.ratings_snapshot().expect("snapshot B");
    if a.len() != b.len() {
        return Some(format!("rating counts differ: incremental {} vs full {}", a.len(), b.len()));
    }
    for (ra, rb) in a.iter().zip(&b) {
        if ra.software_id != rb.software_id {
            return Some(format!(
                "rating key order differs: {} vs {}",
                ra.software_id, rb.software_id
            ));
        }
        if ra.content_bytes() != rb.content_bytes() {
            return Some(format!(
                "rating for {} diverged: incremental {:?} vs full {:?}",
                ra.software_id, ra, rb
            ));
        }
    }
    None
}

/// Greedy chunk-removal shrinker (ddmin): try dropping ever-smaller chunks
/// of the workload while `fails` keeps returning true. Returns the
/// near-minimal failing workload.
pub fn shrink(ops: Vec<Op>, fails: impl Fn(&[Op]) -> bool) -> Vec<Op> {
    let mut current = ops;
    let mut chunk = current.len() / 2;
    while chunk >= 1 {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() {
            let mut candidate = Vec::with_capacity(current.len().saturating_sub(chunk));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[(start + chunk).min(current.len())..]);
            if candidate.len() < current.len() && fails(&candidate) {
                current = candidate;
                removed_any = true;
                // Re-test from the same offset: the next chunk slid into
                // this position.
            } else {
                start += chunk;
            }
        }
        if !removed_any {
            chunk /= 2;
        }
    }
    current
}

/// Number of random cases to run, honouring `SOFTREP_PROP_CASES`.
pub fn case_count(default: usize) -> usize {
    std::env::var("SOFTREP_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Base seed, honouring `SOFTREP_PROP_SEED` (decimal or `0x…` hex) for
/// replay.
pub fn base_seed(default: u64) -> u64 {
    std::env::var("SOFTREP_PROP_SEED")
        .ok()
        .and_then(|v| {
            if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                v.parse().ok()
            }
        })
        .unwrap_or(default)
}
