//! The reputation database: every table of §3.2/3.3 bound to a
//! `softrep-storage` store, with the paper's constraints enforced
//! transactionally.
//!
//! Enforced invariants (DESIGN.md §5):
//!
//! 1. one vote per (user, software) — structural, via the composite key;
//! 2. trust bounds and weekly growth cap — via [`TrustEngine`];
//! 4. privacy-minimal user schema — via [`UserRecord`] + the peppered
//!    e-mail digest, with uniqueness from a unique secondary index;
//! 5. deterministic 24 h aggregation — via [`crate::aggregate`].
//!
//! The struct is deliberately clock-free: every mutating method takes
//! `now: Timestamp`, so the same call sequence is exactly reproducible —
//! which the experiment harnesses rely on.

// A panic on the request path turns one hostile frame or bad record into
// an outage: these lints hold outside tests (this module).
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rand::RngCore;
use softrep_obs::{Histogram, SpanFamily};

use softrep_crypto::hex;
use softrep_crypto::salted::{PasswordHash, SecretPepper};
use softrep_crypto::sha256::Sha256;
use softrep_storage::codec::Encode;
use softrep_storage::index::{IndexDef, IndexKind, IndexedTable};
use softrep_storage::table::{KeyCodec, Table, TableSchema};
use softrep_storage::{Store, StoreStats, WriteBatch};

use crate::aggregate;
use crate::aggregate_engine::{self, AggregationStats, DEFAULT_SHARDS, DEFAULT_WORKERS};
use crate::bootstrap::{expand_entry, BootstrapEntry, BOOTSTRAP_USER_PREFIX};
use crate::clock::Timestamp;
use crate::error::{CoreError, CoreResult};
use crate::extensions::{EvidenceRecord, FeedEntryRecord, FeedRecord};
use crate::model::{
    AccumulatorRecord, CommentRecord, CommentStatus, RatingRecord, RemarkRecord, SoftwareRecord,
    TrustRecord, UserRecord, VoteRecord, MAX_BEHAVIOURS, MAX_BEHAVIOUR_LEN, MAX_SCORE,
    MAX_SOFTWARE_FIELD_LEN, MIN_SCORE,
};
use crate::moderation::{apply_decision, ModerationDecision, ModerationPolicy, ModerationStats};
use crate::trust::{deltas, TrustEngine};

static VOTES: TableSchema<(String, String), VoteRecord> = TableSchema::new("votes");
static REMARKS: TableSchema<(u64, String), RemarkRecord> = TableSchema::new("remarks");
static RATINGS: TableSchema<String, RatingRecord> = TableSchema::new("ratings");
static TRUST: TableSchema<String, TrustRecord> = TableSchema::new("trust");
static EVIDENCE: TableSchema<String, EvidenceRecord> = TableSchema::new("evidence");
static FEEDS: TableSchema<String, FeedRecord> = TableSchema::new("feeds");
static FEED_ENTRIES: TableSchema<(String, String), FeedEntryRecord> =
    TableSchema::new("feed_entries");
/// Reverse vote index `(username, software_id) → cast_at`: lets a trust
/// change dirty every title the user voted on without scanning all votes.
static VOTES_BY_USER: TableSchema<(String, String), Timestamp> = TableSchema::new("votes_by_user");
/// Persisted `(Σ w·s, Σ w)` accumulators; see [`AccumulatorRecord`].
static ACCUMULATORS: TableSchema<String, AccumulatorRecord> = TableSchema::new("agg_accumulators");

const META_TREE: &str = "meta";
/// Dirty set of the incremental aggregation engine: key is the key-codec
/// encoding of the software id, value is empty. Marks are written in the
/// same [`WriteBatch`] as the mutation that caused them.
const AGG_DIRTY_TREE: &str = "agg_dirty";
/// Marks of the batch currently being recomputed. Draining moves marks
/// here (atomically with the dirty-tree delete) instead of discarding
/// them, and a batch clears its marks only after its ratings are written:
/// a crash anywhere inside the batch leaves the marks recoverable, so the
/// next drain retries them. Without this staging tree, a crash between
/// the drain and the rating writes silently dropped the whole dirty set —
/// the crash-schedule explorer (tests/crash_matrix.rs) found exactly that
/// schedule.
const AGG_INFLIGHT_TREE: &str = "agg_inflight";
/// Read-side caches are cleared wholesale when they exceed this many
/// entries — crude, but bounds memory without an LRU dependency.
const READ_CACHE_CAP: usize = 4096;
const SPENT_PSEUDONYM_TOKENS_TREE: &str = "spent_pseudonym_tokens";
const META_NEXT_COMMENT_ID: &[u8] = b"next_comment_id";
const META_LAST_AGGREGATION: &[u8] = b"last_aggregation";

pub use crate::trust::BOOTSTRAP_SEED_TRUST;

/// A published comment together with its net remark score, as shown to
/// clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedComment {
    /// The underlying record.
    pub comment: CommentRecord,
    /// Positive minus negative remarks.
    pub remark_score: i64,
}

/// Everything a client needs to render the execution-time dialog.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareReport {
    /// Stored metadata.
    pub software: SoftwareRecord,
    /// Last published aggregate, if any batch has covered this software.
    pub rating: Option<RatingRecord>,
    /// Published comments, highest remark score first.
    pub comments: Vec<PublishedComment>,
    /// Analyzer-verified behaviour evidence (§5 future work), if any.
    pub evidence: Option<EvidenceRecord>,
}

/// Derived vendor view (§3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct VendorReport {
    /// Vendor (company) name.
    pub vendor: String,
    /// Mean over the vendor's rated software.
    pub rating: Option<f64>,
    /// Number of software titles attributed to the vendor.
    pub software_count: u64,
}

/// Aggregate deployment counters for the web front page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentStats {
    /// Registered accounts.
    pub users: u64,
    /// Known executables.
    pub software: u64,
    /// Ballots cast.
    pub votes: u64,
    /// Comments stored (all statuses).
    pub comments: u64,
    /// Executables with a published rating.
    pub rated_software: u64,
}

/// Cached observability handles for the aggregation engine (crates/obs):
/// per-run latency spans plus the drained-dirty-set size distribution.
/// Registered once per database; every record is relaxed atomics outside
/// any database lock, so batch runs cost two clock reads, not contention.
struct DbObs {
    /// Wall time of one incremental batch (always-on: runs are ms-scale).
    agg_incremental: SpanFamily,
    /// Wall time of one full (paper §3.2) batch.
    agg_full: SpanFamily,
    /// Dirty titles drained per incremental batch — the backlog each run
    /// actually absorbed, complementing the live `dirty_count` gauge.
    batch_dirty: Arc<Histogram>,
}

impl DbObs {
    fn new() -> Self {
        let registry = softrep_obs::registry();
        DbObs {
            agg_incremental: SpanFamily::always(
                "agg_incremental_run",
                registry.histogram("softrep_agg_incremental_run_us"),
            ),
            agg_full: SpanFamily::always(
                "agg_full_run",
                registry.histogram("softrep_agg_full_run_us"),
            ),
            batch_dirty: registry.histogram("softrep_agg_batch_dirty_titles"),
        }
    }
}

/// The reputation database.
pub struct ReputationDb {
    store: Arc<Store>,
    users: IndexedTable<String, UserRecord>,
    software: IndexedTable<String, SoftwareRecord>,
    comments: IndexedTable<u64, CommentRecord>,
    votes: Table<(String, String), VoteRecord>,
    votes_by_user: Table<(String, String), Timestamp>,
    remarks: Table<(u64, String), RemarkRecord>,
    ratings: Table<String, RatingRecord>,
    accumulators: Table<String, AccumulatorRecord>,
    trust: Table<String, TrustRecord>,
    evidence: Table<String, EvidenceRecord>,
    feeds: Table<String, FeedRecord>,
    feed_entries: Table<(String, String), FeedEntryRecord>,
    pepper: SecretPepper,
    moderation_policy: ModerationPolicy,
    moderation_stats: Mutex<ModerationStats>,
    /// Memoised [`software_report`](Self::software_report) results,
    /// invalidated by every mutation that can change a report. `RwLock`
    /// so concurrent cache hits — the hot execution-time read path —
    /// share the lock instead of serialising behind each other.
    report_cache: RwLock<HashMap<String, SoftwareReport>>,
    /// Memoised [`vendor_report`](Self::vendor_report) results, keyed by
    /// company name.
    vendor_cache: RwLock<HashMap<String, VendorReport>>,
    agg_counters: AggCounters,
    obs: DbObs,
    /// Serialises multi-step mutations (check-then-act sequences such as
    /// the duplicate-username check, the unique e-mail index check, and
    /// the comment-id counter) against concurrent callers. Reads and
    /// single-key writes don't need it — the store itself is internally
    /// synchronised.
    write_gate: Mutex<()>,
}

impl ReputationDb {
    /// Open over an existing store (durable or in-memory).
    pub fn new(store: Arc<Store>, pepper: SecretPepper) -> Self {
        Self::with_moderation(store, pepper, ModerationPolicy::Open)
    }

    /// Open with an explicit moderation policy.
    pub fn with_moderation(
        store: Arc<Store>,
        pepper: SecretPepper,
        moderation_policy: ModerationPolicy,
    ) -> Self {
        let users = IndexedTable::new(
            Arc::clone(&store),
            "users",
            vec![IndexDef {
                tree: "users_by_email",
                kind: IndexKind::Unique,
                // Pseudonym accounts store no e-mail digest at all; an
                // empty digest must not become a colliding index key.
                extract: |_, u: &UserRecord| {
                    if u.email_digest.is_empty() {
                        Vec::new()
                    } else {
                        vec![u.email_digest.as_bytes().to_vec()]
                    }
                },
            }],
        );
        let software = IndexedTable::new(
            Arc::clone(&store),
            "software",
            vec![IndexDef {
                tree: "software_by_company",
                kind: IndexKind::NonUnique,
                extract: |_, s: &SoftwareRecord| {
                    s.company.as_deref().map(|c| vec![c.as_bytes().to_vec()]).unwrap_or_default()
                },
            }],
        );
        let comments = IndexedTable::new(
            Arc::clone(&store),
            "comments",
            vec![IndexDef {
                tree: "comments_by_software",
                kind: IndexKind::NonUnique,
                extract: |_, c: &CommentRecord| vec![c.software_id.as_bytes().to_vec()],
            }],
        );
        ReputationDb {
            votes: Table::bind(Arc::clone(&store), &VOTES),
            votes_by_user: Table::bind(Arc::clone(&store), &VOTES_BY_USER),
            remarks: Table::bind(Arc::clone(&store), &REMARKS),
            ratings: Table::bind(Arc::clone(&store), &RATINGS),
            accumulators: Table::bind(Arc::clone(&store), &ACCUMULATORS),
            trust: Table::bind(Arc::clone(&store), &TRUST),
            evidence: Table::bind(Arc::clone(&store), &EVIDENCE),
            feeds: Table::bind(Arc::clone(&store), &FEEDS),
            feed_entries: Table::bind(Arc::clone(&store), &FEED_ENTRIES),
            users,
            software,
            comments,
            store,
            pepper,
            moderation_policy,
            moderation_stats: Mutex::new(ModerationStats::default()),
            report_cache: RwLock::new(HashMap::new()),
            vendor_cache: RwLock::new(HashMap::new()),
            agg_counters: AggCounters::default(),
            obs: DbObs::new(),
            write_gate: Mutex::new(()),
        }
    }

    /// Convenience: fresh in-memory database for tests and simulations.
    pub fn in_memory(pepper_secret: &str) -> Self {
        Self::new(
            Arc::new(Store::in_memory()),
            SecretPepper::new(pepper_secret.as_bytes().to_vec()),
        )
    }

    /// The underlying store (for stats, compaction, sync).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Drop every read-through cache. The replication apply path writes
    /// batches into the store *beneath* this layer, so a replica's tail
    /// calls this after each applied page — otherwise reads could keep
    /// serving pre-replication state indefinitely.
    pub fn purge_read_caches(&self) {
        self.report_cache.write().clear();
        self.vendor_cache.write().clear();
    }

    // -----------------------------------------------------------------
    // Accounts (§3.2)
    // -----------------------------------------------------------------

    /// Register a new account. Returns the activation token, which the
    /// deployment e-mails to the address (and which we hand back to the
    /// simulated mail system).
    pub fn register_user(
        &self,
        username: &str,
        password: &str,
        email: &str,
        now: Timestamp,
        rng: &mut impl RngCore,
    ) -> CoreResult<String> {
        validate_username(username)?;
        if password.is_empty() {
            return Err(CoreError::InvalidInput("password must not be empty".into()));
        }
        if !email.contains('@') || email.len() > 254 {
            return Err(CoreError::InvalidInput("invalid e-mail address".into()));
        }
        let _write = self.write_gate.lock();
        if self.users.contains(&username.to_string()) {
            return Err(CoreError::DuplicateUsername(username.to_string()));
        }

        let mut token_bytes = [0u8; 16];
        rng.fill_bytes(&mut token_bytes);
        let token = hex::encode(&token_bytes);

        let record = UserRecord {
            username: username.to_string(),
            password_hash: PasswordHash::create(password, rng).encode(),
            email_digest: self.pepper.email_digest(email).to_hex(),
            signed_up: now,
            last_login: now,
            activated: false,
            activation_digest: Some(hex::encode(&Sha256::digest(token.as_bytes()))),
            pseudonym: false,
            pseudonym_credential_issued: false,
        };
        // The unique e-mail index rejects duplicate addresses here.
        self.users.put(&username.to_string(), &record)?;
        self.trust.put(&username.to_string(), &TrustEngine::new_user(username, now))?;
        Ok(token)
    }

    /// Redeem an activation token.
    pub fn activate_user(&self, username: &str, token: &str) -> CoreResult<()> {
        let _write = self.write_gate.lock();
        let key = username.to_string();
        let mut user =
            self.users.get(&key)?.ok_or_else(|| CoreError::UnknownUser(username.into()))?;
        if user.activated {
            return Ok(()); // idempotent
        }
        let expected = user.activation_digest.as_deref().ok_or(CoreError::BadActivationToken)?;
        let candidate = hex::encode(&Sha256::digest(token.as_bytes()));
        if !softrep_crypto::hmac::constant_time_eq(candidate.as_bytes(), expected.as_bytes()) {
            return Err(CoreError::BadActivationToken);
        }
        user.activated = true;
        user.activation_digest = None;
        self.users.put(&key, &user)?;
        Ok(())
    }

    /// Check credentials and record the login instant.
    pub fn login(&self, username: &str, password: &str, now: Timestamp) -> CoreResult<()> {
        let key = username.to_string();
        let mut user = self.users.get(&key)?.ok_or(CoreError::BadCredentials)?;
        let hash = PasswordHash::decode(&user.password_hash)
            .ok_or_else(|| CoreError::InvalidInput("stored password hash corrupt".into()))?;
        if !hash.verify(password) {
            return Err(CoreError::BadCredentials);
        }
        if !user.activated {
            return Err(CoreError::NotActivated(username.into()));
        }
        user.last_login = now;
        self.users.put(&key, &user)?;
        Ok(())
    }

    /// Fetch a user record.
    pub fn user(&self, username: &str) -> CoreResult<Option<UserRecord>> {
        Ok(self.users.get(&username.to_string())?)
    }

    /// Number of registered accounts.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Is this e-mail address already bound to an account? (Duplicate
    /// detection works on digests only — the address itself is never
    /// stored.)
    pub fn email_in_use(&self, email: &str) -> CoreResult<bool> {
        let digest = self.pepper.email_digest(email).to_hex();
        Ok(!self.users.lookup("users_by_email", digest.as_bytes())?.is_empty())
    }

    /// A short, stable, non-reversible display tag for a raw identity:
    /// the peppered digest of `domain:raw`, truncated to 12 hex chars and
    /// prefixed with the domain (`peer-3f9a…`, `author-c04b…`). The same
    /// raw value always maps to the same tag — flood buckets stay
    /// accurate and a member's comments stay linkable — but without the
    /// server's secret pepper the mapping cannot be reversed or even
    /// recomputed, which is the §2.2 requirement: transport and account
    /// identities are observed transiently and never exposed raw.
    pub fn pseudonym_tag(&self, domain: &str, raw: &str) -> String {
        let hex = self.pepper.email_digest(&format!("{domain}:{raw}")).to_hex();
        let short = hex.get(..12).unwrap_or(&hex);
        format!("{domain}-{short}")
    }

    /// Current trust factor of a user (None if unknown).
    pub fn trust_of(&self, username: &str) -> CoreResult<Option<f64>> {
        Ok(self.trust.get(&username.to_string())?.map(|t| t.trust()))
    }

    fn require_active_user(&self, username: &str) -> CoreResult<UserRecord> {
        let user = self
            .users
            .get(&username.to_string())?
            .ok_or_else(|| CoreError::UnknownUser(username.into()))?;
        if !user.activated {
            return Err(CoreError::NotActivated(username.into()));
        }
        Ok(user)
    }

    // -----------------------------------------------------------------
    // Software metadata (§3.3)
    // -----------------------------------------------------------------

    /// Record an executable the first time any client reports it. The
    /// first report wins; later reports of the same digest are no-ops
    /// (metadata is derived from the file bytes, so honest reports agree).
    pub fn register_software(
        &self,
        software_id: &str,
        file_name: &str,
        file_size: u64,
        company: Option<String>,
        version: Option<String>,
        now: Timestamp,
    ) -> CoreResult<bool> {
        validate_software_id(software_id)?;
        let fields = [Some(file_name), company.as_deref(), version.as_deref()];
        if fields.into_iter().flatten().any(|f| f.len() > MAX_SOFTWARE_FIELD_LEN) {
            return Err(CoreError::InvalidInput(format!(
                "file name, company and version must each be at most {MAX_SOFTWARE_FIELD_LEN} bytes"
            )));
        }
        let _write = self.write_gate.lock();
        let key = software_id.to_string();
        if self.software.contains(&key) {
            return Ok(false);
        }
        let record = SoftwareRecord {
            software_id: key.clone(),
            file_name: file_name.to_string(),
            file_size,
            company,
            version,
            first_seen: now,
        };
        self.software.put(&key, &record)?;
        if let Some(company) = &record.company {
            self.vendor_cache.write().remove(company);
        }
        Ok(true)
    }

    /// Fetch software metadata.
    pub fn software(&self, software_id: &str) -> CoreResult<Option<SoftwareRecord>> {
        Ok(self.software.get(&software_id.to_string())?)
    }

    /// Number of known executables.
    pub fn software_count(&self) -> usize {
        self.software.len()
    }

    // -----------------------------------------------------------------
    // Votes, comments, remarks (§3.1–3.2)
    // -----------------------------------------------------------------

    /// Submit (or replace) `username`'s vote. Invariant 1: the composite
    /// key makes a second submission an overwrite, never a second ballot.
    pub fn submit_vote(
        &self,
        username: &str,
        software_id: &str,
        score: u8,
        behaviours: Vec<String>,
        now: Timestamp,
    ) -> CoreResult<()> {
        if !(MIN_SCORE..=MAX_SCORE).contains(&score) {
            return Err(CoreError::InvalidScore(score));
        }
        validate_behaviours(&behaviours)?;
        self.require_active_user(username)?;
        if !self.software.contains(&software_id.to_string()) {
            return Err(CoreError::UnknownSoftware(software_id.into()));
        }
        let record = VoteRecord {
            username: username.to_string(),
            software_id: software_id.to_string(),
            score,
            behaviours,
            cast_at: now,
        };
        // Vote, reverse index, and dirty mark land in one batch: a crash
        // (or a concurrent incremental batch) can never observe the vote
        // without the mark that schedules its recompute.
        let mut batch = WriteBatch::new();
        batch.put(
            self.votes.tree(),
            (software_id.to_string(), username.to_string()).to_key_bytes(),
            record.encode_to_bytes().to_vec(),
        );
        batch.put(
            self.votes_by_user.tree(),
            (username.to_string(), software_id.to_string()).to_key_bytes(),
            now.encode_to_bytes().to_vec(),
        );
        batch.put(AGG_DIRTY_TREE, software_id.to_string().to_key_bytes(), Vec::new());
        self.store.apply(&batch)?;
        self.agg_counters.dirty_marks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The caller's current vote for a software, if any.
    pub fn vote_of(&self, username: &str, software_id: &str) -> CoreResult<Option<VoteRecord>> {
        Ok(self.votes.get(&(software_id.to_string(), username.to_string()))?)
    }

    /// All votes for one software. Decodes straight off the borrowed tree
    /// entries — the hot aggregation path allocates one `Vec` per call,
    /// not one per key/value pair.
    pub fn votes_for(&self, software_id: &str) -> CoreResult<Vec<VoteRecord>> {
        let mut out = Vec::new();
        self.votes.for_each_key_prefix(&software_id.to_string(), |_, vote| out.push(vote))?;
        Ok(out)
    }

    /// Total number of votes in the system.
    pub fn vote_count(&self) -> usize {
        self.votes.len()
    }

    /// Submit a comment; returns its id. Under
    /// [`ModerationPolicy::PreApproval`] the comment is queued, not shown.
    pub fn submit_comment(
        &self,
        username: &str,
        software_id: &str,
        text: &str,
        now: Timestamp,
    ) -> CoreResult<u64> {
        self.require_active_user(username)?;
        if !self.software.contains(&software_id.to_string()) {
            return Err(CoreError::UnknownSoftware(software_id.into()));
        }
        let text = text.trim();
        if text.is_empty() || text.len() > 4096 {
            return Err(CoreError::InvalidInput("comment must be 1–4096 characters".into()));
        }
        let _write = self.write_gate.lock();
        let id = self.next_comment_id()?;
        let status = self.moderation_policy.initial_status();
        let record = CommentRecord {
            id,
            author: username.to_string(),
            software_id: software_id.to_string(),
            text: text.to_string(),
            written_at: now,
            status,
        };
        self.comments.put(&id, &record)?;
        if status == CommentStatus::PendingReview {
            self.moderation_stats.lock().on_enqueue();
        }
        self.report_cache.write().remove(software_id);
        Ok(id)
    }

    /// Remark on a comment: `positive = true` raises the author's trust,
    /// `false` lowers it (per [`deltas`]), both through the weekly cap.
    /// One remark per (rater, comment); re-remarking flips the previous
    /// one rather than stacking.
    pub fn remark_comment(
        &self,
        rater: &str,
        comment_id: u64,
        positive: bool,
        now: Timestamp,
    ) -> CoreResult<()> {
        self.require_active_user(rater)?;
        let comment =
            self.comments.get(&comment_id)?.ok_or(CoreError::UnknownComment(comment_id))?;
        if comment.status != CommentStatus::Published {
            return Err(CoreError::CommentNotPublished(comment_id));
        }
        if comment.author == rater {
            return Err(CoreError::SelfRemark);
        }

        let _write = self.write_gate.lock();
        let key = (comment_id, rater.to_string());
        let previous = self.remarks.get(&key)?;
        let delta = match &previous {
            Some(prev) if prev.positive == positive => 0.0, // idempotent
            Some(_) => {
                // Flip: retract the old effect and apply the new one.
                if positive {
                    deltas::POSITIVE_REMARK - deltas::NEGATIVE_REMARK
                } else {
                    deltas::NEGATIVE_REMARK - deltas::POSITIVE_REMARK
                }
            }
            None => {
                if positive {
                    deltas::POSITIVE_REMARK
                } else {
                    deltas::NEGATIVE_REMARK
                }
            }
        };

        // The remark, the author's trust change and its dirty marks land in
        // one batch, so a crash keeps all of them or none.
        let mut batch = WriteBatch::new();
        batch.put(
            self.remarks.tree(),
            key.to_key_bytes(),
            RemarkRecord { rater: rater.to_string(), comment_id, positive, made_at: now }
                .encode_to_bytes()
                .to_vec(),
        );
        let dirtied = if delta != 0.0 {
            self.stage_trust_delta(&mut batch, &comment.author, delta, now)?.1
        } else {
            0
        };
        self.store.apply(&batch)?;
        self.agg_counters.dirty_marks.fetch_add(dirtied, Ordering::Relaxed);
        self.report_cache.write().remove(&comment.software_id);
        Ok(())
    }

    /// Net remark score of a comment.
    pub fn remark_score(&self, comment_id: u64) -> CoreResult<i64> {
        let mut score = 0i64;
        self.remarks.for_each_key_prefix(&comment_id, |_, r: RemarkRecord| {
            score += if r.positive { 1 } else { -1 };
        })?;
        Ok(score)
    }

    /// Published comments for a software, highest remark score first.
    pub fn comments_for(&self, software_id: &str) -> CoreResult<Vec<PublishedComment>> {
        let rows = self.comments.lookup_records("comments_by_software", software_id.as_bytes())?;
        let mut out = Vec::with_capacity(rows.len());
        for (id, comment) in rows {
            if comment.status == CommentStatus::Published {
                out.push(PublishedComment { remark_score: self.remark_score(id)?, comment });
            }
        }
        out.sort_by(|a, b| {
            b.remark_score.cmp(&a.remark_score).then(a.comment.id.cmp(&b.comment.id))
        });
        Ok(out)
    }

    /// Adjust a user's trust factor through the engine (cap + clamp).
    pub fn adjust_trust(&self, username: &str, delta: f64, now: Timestamp) -> CoreResult<f64> {
        let _write = self.write_gate.lock();
        let mut batch = WriteBatch::new();
        let (applied, dirtied) = self.stage_trust_delta(&mut batch, username, delta, now)?;
        self.store.apply(&batch)?;
        self.agg_counters.dirty_marks.fetch_add(dirtied, Ordering::Relaxed);
        Ok(applied)
    }

    /// Stage a trust change into `batch`: the updated trust record and,
    /// when the weight moved, a dirty mark for every title the user voted
    /// on (dirty rule 2). Record and marks commit in the caller's one
    /// batch, so a crash can never keep the new trust without the marks
    /// that schedule its recompute. Returns the applied delta and the
    /// number of marks staged. The caller holds the write gate.
    fn stage_trust_delta(
        &self,
        batch: &mut WriteBatch,
        username: &str,
        delta: f64,
        now: Timestamp,
    ) -> CoreResult<(f64, u64)> {
        let key = username.to_string();
        let mut record =
            self.trust.get(&key)?.unwrap_or_else(|| TrustEngine::new_user(username, now));
        let applied = TrustEngine::apply_delta(&mut record, delta, now);
        batch.put(self.trust.tree(), key.to_key_bytes(), record.encode_to_bytes().to_vec());
        let mut dirtied = 0u64;
        if applied != 0.0 {
            // The visitor runs under the index's shard read lock; it only
            // stages into the batch, never re-enters the store.
            self.votes_by_user.for_each_key_prefix(&key, |(_, software_id), _| {
                batch.put(AGG_DIRTY_TREE, software_id.to_key_bytes(), Vec::new());
                dirtied += 1;
            })?;
        }
        Ok((applied, dirtied))
    }

    // -----------------------------------------------------------------
    // Moderation (§2.1, third mitigation)
    // -----------------------------------------------------------------

    /// Comments awaiting review, oldest first.
    pub fn pending_comments(&self) -> CoreResult<Vec<CommentRecord>> {
        let mut pending: Vec<CommentRecord> = self
            .comments
            .scan()?
            .into_iter()
            .map(|(_, c)| c)
            .filter(|c| c.status == CommentStatus::PendingReview)
            .collect();
        pending.sort_by_key(|c| (c.written_at, c.id));
        Ok(pending)
    }

    /// Apply an administrator decision.
    pub fn moderate_comment(
        &self,
        comment_id: u64,
        decision: ModerationDecision,
        now: Timestamp,
    ) -> CoreResult<()> {
        let _write = self.write_gate.lock();
        let mut comment =
            self.comments.get(&comment_id)?.ok_or(CoreError::UnknownComment(comment_id))?;
        if !apply_decision(&mut comment, decision) {
            return Err(CoreError::InvalidInput(format!("comment {comment_id} is not pending")));
        }
        self.moderation_stats.lock().on_decision(decision, comment.written_at, now);
        self.comments.put(&comment_id, &comment)?;
        // A published (or rejected) comment changes the software report,
        // and moderation outcomes feed future trust remarks — schedule a
        // recompute for the affected title as well.
        self.mark_dirty(&comment.software_id)?;
        self.report_cache.write().remove(&comment.software_id);
        Ok(())
    }

    /// Moderation workload counters.
    pub fn moderation_stats(&self) -> ModerationStats {
        *self.moderation_stats.lock()
    }

    // -----------------------------------------------------------------
    // Aggregation (§3.2) and reports
    // -----------------------------------------------------------------

    /// Run the batch job if 24 h have passed since the last run. Returns
    /// the number of software ratings recomputed (0 if not due).
    ///
    /// Since the incremental engine landed this runs
    /// [`force_aggregation_incremental`](Self::force_aggregation_incremental):
    /// only titles marked dirty since the previous batch are recomputed.
    pub fn run_aggregation_if_due(&self, now: Timestamp) -> CoreResult<usize> {
        if !aggregate::aggregation_due(self.last_aggregation()?, now) {
            return Ok(0);
        }
        self.force_aggregation_incremental(now)
    }

    /// Unconditionally recompute every software rating from the current
    /// votes and trust snapshot — the paper-faithful full batch. Kept both
    /// as the golden reference the incremental path is checked against and
    /// as an operator command.
    pub fn force_aggregation(&self, now: Timestamp) -> CoreResult<usize> {
        self.force_aggregation_full(now)
    }

    /// The full (paper §3.2) batch: every title, one trust snapshot.
    pub fn force_aggregation_full(&self, now: Timestamp) -> CoreResult<usize> {
        let _span = self.obs.agg_full.maybe_start();
        // Drain pending dirty marks *before* reading any votes: the full
        // scan subsumes them, and a vote that lands mid-scan either makes
        // it into this batch or re-marks itself for the next one.
        self.drain_dirty_marks()?;

        // Snapshot trust once: aggregation within a batch sees one
        // consistent trust state (determinism, invariant 5).
        let trust_snapshot: HashMap<String, f64> =
            self.trust.scan()?.into_iter().map(|(user, rec)| (user, rec.trust())).collect();

        let mut recomputed = 0;
        for (software_id, _) in self.software.scan()? {
            let votes = self.votes_for(&software_id)?;
            if let Some((rating, score_mass)) = aggregate::aggregate_software_with_masses(
                &software_id,
                &votes,
                |user| trust_snapshot.get(user).copied(),
                now,
            ) {
                self.write_rating(&rating, score_mass, now)?;
                recomputed += 1;
            }
        }
        self.report_cache.write().clear();
        self.vendor_cache.write().clear();
        self.clear_inflight_marks()?;
        self.store.put(META_TREE, META_LAST_AGGREGATION.to_vec(), now.0.to_be_bytes().to_vec())?;
        self.agg_counters.full_runs.fetch_add(1, Ordering::Relaxed);
        self.agg_counters.titles_recomputed_full.fetch_add(recomputed as u64, Ordering::Relaxed);
        Ok(recomputed)
    }

    /// The incremental batch: recompute only the titles in the dirty set,
    /// sharded over a small worker pool. Produces rating records
    /// content-identical to [`force_aggregation_full`](Self::force_aggregation_full)
    /// (see `aggregate_engine` module docs for the argument; only
    /// `computed_at` of untouched titles differs). Stamps the schedule even
    /// when the dirty set is empty — a no-op batch still counts as a run.
    pub fn force_aggregation_incremental(&self, now: Timestamp) -> CoreResult<usize> {
        let _span = self.obs.agg_incremental.maybe_start();
        // Protocol: delete the marks *before* reading votes. A vote that
        // lands after the delete re-marks its title for the next batch; a
        // vote that lands before our read is folded into this one. Either
        // way no vote is ever dropped (at worst a title is recomputed
        // twice with identical results).
        let dirty = self.drain_dirty_marks()?;
        self.obs.batch_dirty.record(dirty.len() as u64);
        let plan = aggregate_engine::plan_shards(dirty.iter().cloned(), DEFAULT_SHARDS);
        let results: Vec<CoreResult<(RatingRecord, f64)>> =
            aggregate_engine::run_sharded(&plan, DEFAULT_WORKERS, |software_id| {
                self.recompute_one(software_id, now).transpose()
            });

        let mut fresh = Vec::with_capacity(results.len());
        let mut first_err = None;
        for result in results {
            match result {
                Ok(pair) => fresh.push(pair),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        if let Some(err) = first_err {
            // Nothing has been written yet: move every drained mark from
            // in-flight back to dirty (one atomic batch) so the next batch
            // retries the whole set, then surface the error.
            let mut remark = WriteBatch::new();
            for software_id in &dirty {
                remark.put(AGG_DIRTY_TREE, software_id.to_key_bytes(), Vec::new());
                remark.delete(AGG_INFLIGHT_TREE, software_id.to_key_bytes());
            }
            self.store.apply(&remark)?;
            return Err(err);
        }

        let recomputed = fresh.len();
        for (rating, score_mass) in fresh {
            self.write_rating(&rating, score_mass, now)?;
            self.report_cache.write().remove(&rating.software_id);
            self.invalidate_vendor_cache_for(&rating.software_id)?;
        }
        // Every rating of the batch is written: only now may the marks be
        // retired. A crash before this line re-runs the batch (idempotent)
        // instead of losing it.
        self.clear_inflight_marks()?;
        self.store.put(META_TREE, META_LAST_AGGREGATION.to_vec(), now.0.to_be_bytes().to_vec())?;
        self.agg_counters.incremental_runs.fetch_add(1, Ordering::Relaxed);
        self.agg_counters
            .titles_recomputed_incremental
            .fetch_add(recomputed as u64, Ordering::Relaxed);
        Ok(recomputed)
    }

    /// Recompute one title from its current votes and per-voter trust
    /// lookups. `Ok(None)` when the title has no votes (nothing to
    /// publish; any stale record is left in place, exactly like the full
    /// path).
    fn recompute_one(
        &self,
        software_id: &str,
        now: Timestamp,
    ) -> CoreResult<Option<(RatingRecord, f64)>> {
        let votes = self.votes_for(software_id)?;
        // Point lookups instead of a full trust snapshot: only this
        // title's voters matter, which is what makes a 1-dirty-in-10k
        // batch cheap. Values are identical to a snapshot's — trust writes
        // racing the batch fall under the this-batch-or-next guarantee.
        let mut trust_of_voter: HashMap<&str, f64> = HashMap::with_capacity(votes.len());
        for vote in &votes {
            if !trust_of_voter.contains_key(vote.username.as_str()) {
                if let Some(rec) = self.trust.get(&vote.username)? {
                    trust_of_voter.insert(vote.username.as_str(), rec.trust());
                }
            }
        }
        Ok(aggregate::aggregate_software_with_masses(
            software_id,
            &votes,
            |user| trust_of_voter.get(user).copied(),
            now,
        ))
    }

    /// Persist one recomputed rating plus its raw-mass accumulator.
    fn write_rating(
        &self,
        rating: &RatingRecord,
        score_mass: f64,
        now: Timestamp,
    ) -> CoreResult<()> {
        self.accumulators.put(
            &rating.software_id,
            &AccumulatorRecord {
                software_id: rating.software_id.clone(),
                score_mass,
                weight_mass: rating.trust_mass,
                vote_count: rating.vote_count,
                updated_at: now,
            },
        )?;
        self.ratings.put(&rating.software_id, rating)?;
        Ok(())
    }

    /// Remove and return the dirty set. Deleting before the caller reads
    /// votes is what makes concurrent marks safe (see
    /// [`force_aggregation_incremental`](Self::force_aggregation_incremental)).
    ///
    /// Crash safety: the delete and a copy into [`AGG_INFLIGHT_TREE`] are
    /// one atomic batch, and leftovers from an earlier batch that died
    /// mid-flight are folded into the result — so a mark can be retried
    /// (recomputation is idempotent) but never lost. The caller retires
    /// the in-flight marks via [`clear_inflight_marks`](Self::clear_inflight_marks)
    /// once the recomputed ratings are written.
    fn drain_dirty_marks(&self) -> CoreResult<Vec<String>> {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut stage = WriteBatch::new();
        // Collect under the read lock, write after it drops (the visitor
        // must not call back into the store).
        self.store.for_each_prefix(AGG_DIRTY_TREE, &[], |key, _| {
            keys.push(key.to_vec());
            stage.delete(AGG_DIRTY_TREE, key.to_vec());
            stage.put(AGG_INFLIGHT_TREE, key.to_vec(), Vec::new());
            true
        });
        // Marks a crashed batch drained but never retired.
        self.store.for_each_prefix(AGG_INFLIGHT_TREE, &[], |key, _| {
            keys.push(key.to_vec());
            true
        });
        if !stage.is_empty() {
            self.store.apply(&stage)?;
        }
        keys.sort();
        keys.dedup();
        Ok(keys.iter().filter_map(|key| String::from_key_bytes(key)).collect())
    }

    /// Retire in-flight marks once the batch that drained them has written
    /// every recomputed rating. Batches run one at a time (the scheduler
    /// serializes aggregation), so everything in the tree belongs to the
    /// batch that just finished.
    fn clear_inflight_marks(&self) -> CoreResult<()> {
        let mut retire = WriteBatch::new();
        self.store.for_each_prefix(AGG_INFLIGHT_TREE, &[], |key, _| {
            retire.delete(AGG_INFLIGHT_TREE, key.to_vec());
            true
        });
        if !retire.is_empty() {
            self.store.apply(&retire)?;
        }
        Ok(())
    }

    /// Mark one title for recompute by the next incremental batch.
    fn mark_dirty(&self, software_id: &str) -> CoreResult<()> {
        self.store.put(AGG_DIRTY_TREE, software_id.to_string().to_key_bytes(), Vec::new())?;
        self.agg_counters.dirty_marks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drop the cached vendor report of the company owning `software_id`.
    fn invalidate_vendor_cache_for(&self, software_id: &str) -> CoreResult<()> {
        if let Some(sw) = self.software.get(&software_id.to_string())? {
            if let Some(company) = sw.company {
                self.vendor_cache.write().remove(&company);
            }
        }
        Ok(())
    }

    /// Titles currently marked for recompute (diagnostics and tests).
    pub fn dirty_software(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.store.for_each_prefix(AGG_DIRTY_TREE, &[], |key, _| {
            if let Some(id) = String::from_key_bytes(key) {
                out.push(id);
            }
            true
        });
        out
    }

    /// Size of the dirty set.
    pub fn dirty_count(&self) -> usize {
        self.store.tree_len(AGG_DIRTY_TREE)
    }

    /// The persisted accumulator for one title, if any batch published it.
    pub fn accumulator(&self, software_id: &str) -> CoreResult<Option<AccumulatorRecord>> {
        Ok(self.accumulators.get(&software_id.to_string())?)
    }

    /// Aggregation-engine and read-cache counters.
    pub fn aggregation_stats(&self) -> AggregationStats {
        self.agg_counters.snapshot()
    }

    /// Instant of the last completed batch, if any.
    pub fn last_aggregation(&self) -> CoreResult<Option<Timestamp>> {
        match self.store.get(META_TREE, META_LAST_AGGREGATION) {
            None => Ok(None),
            Some(raw) => Ok(Some(Timestamp(decode_meta_u64(&raw)?))),
        }
    }

    /// Published rating for one software, if a batch has covered it.
    pub fn rating(&self, software_id: &str) -> CoreResult<Option<RatingRecord>> {
        Ok(self.ratings.get(&software_id.to_string())?)
    }

    /// Every published rating, in key (software id) order. The equivalence
    /// harness compares two databases' entire rating tables through this.
    pub fn ratings_snapshot(&self) -> CoreResult<Vec<RatingRecord>> {
        Ok(self.ratings.scan()?.into_iter().map(|(_, r)| r).collect())
    }

    /// The full execution-time report for a software. Memoised: repeated
    /// reads between mutations are served from the report cache instead of
    /// re-deriving comments/remarks/evidence per request.
    pub fn software_report(&self, software_id: &str) -> CoreResult<Option<SoftwareReport>> {
        {
            let cache = self.report_cache.read();
            if let Some(hit) = cache.get(software_id) {
                let out = hit.clone();
                drop(cache);
                self.agg_counters.report_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(out));
            }
        }
        self.agg_counters.report_cache_misses.fetch_add(1, Ordering::Relaxed);
        let Some(software) = self.software(software_id)? else { return Ok(None) };
        let report = SoftwareReport {
            rating: self.rating(software_id)?,
            comments: self.comments_for(software_id)?,
            evidence: self.evidence(software_id)?,
            software,
        };
        let mut cache = self.report_cache.write();
        if cache.len() >= READ_CACHE_CAP {
            cache.clear();
        }
        cache.insert(software_id.to_string(), report.clone());
        Ok(Some(report))
    }

    /// Derived vendor reputation: mean of the vendor's published software
    /// ratings (§3.3). Memoised like
    /// [`software_report`](Self::software_report).
    pub fn vendor_report(&self, vendor: &str) -> CoreResult<VendorReport> {
        {
            let cache = self.vendor_cache.read();
            if let Some(hit) = cache.get(vendor) {
                let out = hit.clone();
                drop(cache);
                self.agg_counters.vendor_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(out);
            }
        }
        self.agg_counters.vendor_cache_misses.fetch_add(1, Ordering::Relaxed);
        let titles = self.software.lookup("software_by_company", vendor.as_bytes())?;
        let mut ratings = Vec::new();
        for software_id in &titles {
            if let Some(r) = self.rating(software_id)? {
                ratings.push(r.rating);
            }
        }
        let report = VendorReport {
            vendor: vendor.to_string(),
            rating: aggregate::vendor_rating(ratings),
            software_count: titles.len() as u64,
        };
        let mut cache = self.vendor_cache.write();
        if cache.len() >= READ_CACHE_CAP {
            cache.clear();
        }
        cache.insert(vendor.to_string(), report.clone());
        Ok(report)
    }

    // -----------------------------------------------------------------
    // Bootstrap (§2.1, second mitigation)
    // -----------------------------------------------------------------

    /// Import external aggregates as seed votes under reserved identities
    /// with [`BOOTSTRAP_SEED_TRUST`]. Creates placeholder software records
    /// for ids the database has not seen.
    pub fn bootstrap(&self, entries: &[BootstrapEntry], now: Timestamp) -> CoreResult<usize> {
        let _write = self.write_gate.lock();
        let mut seeded = 0;
        for entry in entries {
            validate_software_id(&entry.software_id)?;
            validate_behaviours(&entry.behaviours)?;
            let key = entry.software_id.clone();
            if !self.software.contains(&key) {
                self.software.put(
                    &key,
                    &SoftwareRecord {
                        software_id: key.clone(),
                        file_name: String::new(),
                        file_size: 0,
                        company: None,
                        version: None,
                        first_seen: now,
                    },
                )?;
            }
            for vote in expand_entry(entry, now) {
                // Seed identities get a trust record on first use.
                if self.trust.get(&vote.username)?.is_none() {
                    self.trust
                        .put(&vote.username, &TrustEngine::seeded_user(&vote.username, now))?;
                }
                // Same atomic triple as `submit_vote`: vote, reverse
                // index, dirty mark.
                let mut batch = WriteBatch::new();
                batch.put(
                    self.votes.tree(),
                    (vote.software_id.clone(), vote.username.clone()).to_key_bytes(),
                    vote.encode_to_bytes().to_vec(),
                );
                batch.put(
                    self.votes_by_user.tree(),
                    (vote.username.clone(), vote.software_id.clone()).to_key_bytes(),
                    now.encode_to_bytes().to_vec(),
                );
                batch.put(AGG_DIRTY_TREE, vote.software_id.clone().to_key_bytes(), Vec::new());
                self.store.apply(&batch)?;
                self.agg_counters.dirty_marks.fetch_add(1, Ordering::Relaxed);
                seeded += 1;
            }
        }
        Ok(seeded)
    }

    // -----------------------------------------------------------------
    // Pseudonyms (§5 future work: unlinkable membership)
    // -----------------------------------------------------------------

    /// Mark that `username` has drawn their one pseudonym credential.
    /// Fails if it was already drawn — one unlinkable identity per
    /// verified member keeps the §2.1 Sybil economics intact.
    pub fn mark_pseudonym_credential_issued(&self, username: &str) -> CoreResult<()> {
        let _write = self.write_gate.lock();
        let key = username.to_string();
        let mut user =
            self.users.get(&key)?.ok_or_else(|| CoreError::UnknownUser(username.into()))?;
        if !user.activated {
            return Err(CoreError::NotActivated(username.into()));
        }
        if user.pseudonym {
            return Err(CoreError::InvalidInput(
                "pseudonym accounts cannot draw further credentials".into(),
            ));
        }
        if user.pseudonym_credential_issued {
            return Err(CoreError::InvalidInput("pseudonym credential already issued".into()));
        }
        user.pseudonym_credential_issued = true;
        self.users.put(&key, &user)?;
        Ok(())
    }

    /// Create a pseudonym account: no e-mail, activated immediately —
    /// membership was proven by the blind-signed token, whose digest is
    /// recorded to prevent double-spending. The caller (the server layer)
    /// is responsible for verifying the token's signature first.
    pub fn register_pseudonym(
        &self,
        username: &str,
        password: &str,
        token_digest: &str,
        now: Timestamp,
        rng: &mut impl RngCore,
    ) -> CoreResult<()> {
        validate_username(username)?;
        if password.is_empty() {
            return Err(CoreError::InvalidInput("password must not be empty".into()));
        }
        let _write = self.write_gate.lock();
        if self.users.contains(&username.to_string()) {
            return Err(CoreError::DuplicateUsername(username.to_string()));
        }
        if self.store.contains(SPENT_PSEUDONYM_TOKENS_TREE, token_digest.as_bytes()) {
            return Err(CoreError::InvalidInput("pseudonym token already spent".into()));
        }
        let record = UserRecord {
            username: username.to_string(),
            password_hash: PasswordHash::create(password, rng).encode(),
            email_digest: String::new(),
            signed_up: now,
            last_login: now,
            activated: true,
            activation_digest: None,
            pseudonym: true,
            pseudonym_credential_issued: true,
        };
        self.users.put(&username.to_string(), &record)?;
        self.trust.put(&username.to_string(), &TrustEngine::new_user(username, now))?;
        self.store.put(
            SPENT_PSEUDONYM_TOKENS_TREE,
            token_digest.as_bytes().to_vec(),
            Vec::new(),
        )?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Browse & search (the §3 web interface's queries)
    // -----------------------------------------------------------------

    /// Case-insensitive substring search over file names and vendor
    /// names, capped at `limit` results in id order.
    pub fn search_software(&self, query: &str, limit: usize) -> CoreResult<Vec<SoftwareRecord>> {
        let needle = query.to_ascii_lowercase();
        let mut out = Vec::new();
        for (_, record) in self.software.scan()? {
            let hit = record.file_name.to_ascii_lowercase().contains(&needle)
                || record
                    .company
                    .as_deref()
                    .is_some_and(|c| c.to_ascii_lowercase().contains(&needle));
            if hit {
                out.push(record);
                if out.len() == limit {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// The `limit` best-rated programs (highest first; ties by id).
    pub fn top_rated(&self, limit: usize) -> CoreResult<Vec<RatingRecord>> {
        let mut all: Vec<RatingRecord> = self.ratings.scan()?.into_iter().map(|(_, r)| r).collect();
        all.sort_by(|a, b| {
            b.rating.total_cmp(&a.rating).then_with(|| a.software_id.cmp(&b.software_id))
        });
        all.truncate(limit);
        Ok(all)
    }

    /// The `limit` worst-rated programs (lowest first; ties by id) — the
    /// web interface's warning list.
    pub fn bottom_rated(&self, limit: usize) -> CoreResult<Vec<RatingRecord>> {
        let mut all: Vec<RatingRecord> = self.ratings.scan()?.into_iter().map(|(_, r)| r).collect();
        all.sort_by(|a, b| {
            a.rating.total_cmp(&b.rating).then_with(|| a.software_id.cmp(&b.software_id))
        });
        all.truncate(limit);
        Ok(all)
    }

    /// Deployment-level counters shown on the web front page ("run
    /// statistics", §3.1).
    pub fn deployment_stats(&self) -> DeploymentStats {
        DeploymentStats {
            users: self.users.len() as u64,
            software: self.software.len() as u64,
            votes: self.votes.len() as u64,
            comments: self.comments.len() as u64,
            rated_software: self.ratings.len() as u64,
        }
    }

    // -----------------------------------------------------------------
    // Extensions: analyzer evidence (§5) and rating feeds (§4.2)
    // -----------------------------------------------------------------

    /// Store runtime-analysis evidence for an executable. The latest
    /// analysis wins ("hard evidence on the behaviour for that specific
    /// software", §5); authentication of the analyzer is the server
    /// layer's job.
    pub fn record_evidence(
        &self,
        software_id: &str,
        behaviours: Vec<String>,
        analyzer: &str,
        now: Timestamp,
    ) -> CoreResult<()> {
        validate_behaviours(&behaviours)?;
        if !self.software.contains(&software_id.to_string()) {
            return Err(CoreError::UnknownSoftware(software_id.into()));
        }
        self.evidence.put(
            &software_id.to_string(),
            &EvidenceRecord {
                software_id: software_id.to_string(),
                behaviours,
                analyzer: analyzer.to_string(),
                analyzed_at: now,
            },
        )?;
        self.report_cache.write().remove(software_id);
        Ok(())
    }

    /// The stored evidence for an executable, if any analysis ran.
    pub fn evidence(&self, software_id: &str) -> CoreResult<Option<EvidenceRecord>> {
        Ok(self.evidence.get(&software_id.to_string())?)
    }

    /// Create a rating feed owned by `publisher` (§4.2: organisations
    /// "publish their software ratings … within the reputation system").
    pub fn create_feed(&self, name: &str, publisher: &str, now: Timestamp) -> CoreResult<()> {
        validate_feed_name(name)?;
        self.require_active_user(publisher)?;
        let _write = self.write_gate.lock();
        if self.feeds.contains(&name.to_string()) {
            return Err(CoreError::FeedExists(name.into()));
        }
        self.feeds.put(
            &name.to_string(),
            &FeedRecord {
                name: name.to_string(),
                publisher: publisher.to_string(),
                created_at: now,
            },
        )?;
        Ok(())
    }

    /// Look up a feed.
    pub fn feed(&self, name: &str) -> CoreResult<Option<FeedRecord>> {
        Ok(self.feeds.get(&name.to_string())?)
    }

    /// Publish (or update) a feed's verdict on one executable. Only the
    /// feed's owner may publish — subscribers trust the publisher, so the
    /// server must guarantee provenance.
    pub fn publish_feed_entry(
        &self,
        publisher: &str,
        feed: &str,
        software_id: &str,
        rating: f64,
        behaviours: Vec<String>,
        now: Timestamp,
    ) -> CoreResult<()> {
        self.require_active_user(publisher)?;
        let record = self.feed(feed)?.ok_or_else(|| CoreError::UnknownFeed(feed.to_string()))?;
        if record.publisher != publisher {
            return Err(CoreError::NotFeedOwner { feed: feed.into(), user: publisher.into() });
        }
        if !(1.0..=10.0).contains(&rating) {
            return Err(CoreError::InvalidInput(format!("feed rating {rating} outside 1..=10")));
        }
        validate_behaviours(&behaviours)?;
        if !self.software.contains(&software_id.to_string()) {
            return Err(CoreError::UnknownSoftware(software_id.into()));
        }
        self.feed_entries.put(
            &(feed.to_string(), software_id.to_string()),
            &FeedEntryRecord {
                feed: feed.to_string(),
                software_id: software_id.to_string(),
                rating,
                behaviours,
                published_at: now,
            },
        )?;
        Ok(())
    }

    /// A feed's verdict on one executable, if published.
    pub fn feed_entry(&self, feed: &str, software_id: &str) -> CoreResult<Option<FeedEntryRecord>> {
        Ok(self.feed_entries.get(&(feed.to_string(), software_id.to_string()))?)
    }

    /// Every entry a feed has published, in software-id order.
    pub fn feed_entries(&self, feed: &str) -> CoreResult<Vec<FeedEntryRecord>> {
        let mut out = Vec::new();
        self.feed_entries.for_each_key_prefix(&feed.to_string(), |_, entry| out.push(entry))?;
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Plumbing
    // -----------------------------------------------------------------

    fn next_comment_id(&self) -> CoreResult<u64> {
        let next = match self.store.get(META_TREE, META_NEXT_COMMENT_ID) {
            None => 1,
            Some(raw) => decode_meta_u64(&raw)?,
        };
        self.store.put(
            META_TREE,
            META_NEXT_COMMENT_ID.to_vec(),
            (next + 1).to_be_bytes().to_vec(),
        )?;
        Ok(next)
    }

    /// Storage-level counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }
}

/// Decode a big-endian `u64` meta value without panicking on a short or
/// overlong buffer (a corrupt meta tree must surface as an error, not a
/// crash in the request path).
/// Lock-free counters behind [`ReputationDb::aggregation_stats`].
#[derive(Default)]
struct AggCounters {
    incremental_runs: AtomicU64,
    full_runs: AtomicU64,
    titles_recomputed_incremental: AtomicU64,
    titles_recomputed_full: AtomicU64,
    dirty_marks: AtomicU64,
    report_cache_hits: AtomicU64,
    report_cache_misses: AtomicU64,
    vendor_cache_hits: AtomicU64,
    vendor_cache_misses: AtomicU64,
}

impl AggCounters {
    fn snapshot(&self) -> AggregationStats {
        AggregationStats {
            incremental_runs: self.incremental_runs.load(Ordering::Relaxed),
            full_runs: self.full_runs.load(Ordering::Relaxed),
            titles_recomputed_incremental: self
                .titles_recomputed_incremental
                .load(Ordering::Relaxed),
            titles_recomputed_full: self.titles_recomputed_full.load(Ordering::Relaxed),
            dirty_marks: self.dirty_marks.load(Ordering::Relaxed),
            report_cache_hits: self.report_cache_hits.load(Ordering::Relaxed),
            report_cache_misses: self.report_cache_misses.load(Ordering::Relaxed),
            vendor_cache_hits: self.vendor_cache_hits.load(Ordering::Relaxed),
            vendor_cache_misses: self.vendor_cache_misses.load(Ordering::Relaxed),
        }
    }
}

fn decode_meta_u64(raw: &[u8]) -> CoreResult<u64> {
    let bytes: [u8; 8] = raw.try_into().map_err(|_| {
        CoreError::Storage(softrep_storage::StorageError::Corrupt(format!(
            "meta value is {} bytes, expected 8",
            raw.len()
        )))
    })?;
    Ok(u64::from_be_bytes(bytes))
}

fn validate_username(username: &str) -> CoreResult<()> {
    let ok_chars = username.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if !(3..=32).contains(&username.len()) || !ok_chars {
        return Err(CoreError::InvalidInput("username must be 3–32 chars of [A-Za-z0-9_-]".into()));
    }
    if username.starts_with(BOOTSTRAP_USER_PREFIX) || username.starts_with("__") {
        return Err(CoreError::InvalidInput("usernames starting with __ are reserved".into()));
    }
    Ok(())
}

fn validate_feed_name(name: &str) -> CoreResult<()> {
    let ok_chars = name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
    if !(3..=32).contains(&name.len()) || !ok_chars {
        return Err(CoreError::InvalidInput("feed name must be 3-32 chars of [a-z0-9-]".into()));
    }
    Ok(())
}

/// At most [`MAX_BEHAVIOURS`] names, each at most [`MAX_BEHAVIOUR_LEN`]
/// bytes, none repeated: one member, one voice per behaviour.
fn validate_behaviours(behaviours: &[String]) -> CoreResult<()> {
    if behaviours.len() > MAX_BEHAVIOURS {
        return Err(CoreError::InvalidInput(format!(
            "at most {MAX_BEHAVIOURS} behaviour names may be given"
        )));
    }
    if behaviours.iter().any(|b| b.len() > MAX_BEHAVIOUR_LEN) {
        return Err(CoreError::InvalidInput(format!(
            "behaviour names must be at most {MAX_BEHAVIOUR_LEN} bytes"
        )));
    }
    let mut names: Vec<&str> = behaviours.iter().map(String::as_str).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != behaviours.len() {
        return Err(CoreError::InvalidInput("behaviour names must not repeat".into()));
    }
    Ok(())
}

fn validate_software_id(software_id: &str) -> CoreResult<()> {
    let is_hex = !software_id.is_empty() && software_id.chars().all(|c| c.is_ascii_hexdigit());
    let ok_len = software_id.len() == 40 || software_id.len() == 64;
    if !is_hex || !ok_len {
        return Err(CoreError::InvalidInput(
            "software id must be a 40- or 64-char hex digest".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{DAY_SECS, WEEK_SECS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn sw_id(tag: u8) -> String {
        format!("{:02x}", tag).repeat(20)
    }

    /// Register + activate a user in one step.
    fn member(db: &ReputationDb, name: &str, now: Timestamp) {
        let token =
            db.register_user(name, "pw", &format!("{name}@example.com"), now, &mut rng()).unwrap();
        db.activate_user(name, &token).unwrap();
    }

    fn db_with_member() -> ReputationDb {
        let db = ReputationDb::in_memory("pepper");
        member(&db, "alice", Timestamp(0));
        db
    }

    #[test]
    fn registration_activation_login_flow() {
        let db = ReputationDb::in_memory("pepper");
        let token = db.register_user("alice", "pw", "a@x.com", Timestamp(0), &mut rng()).unwrap();

        // Login before activation fails.
        assert!(matches!(db.login("alice", "pw", Timestamp(1)), Err(CoreError::NotActivated(_))));
        // Wrong token fails; right token succeeds; idempotent after.
        assert!(matches!(db.activate_user("alice", "wrong"), Err(CoreError::BadActivationToken)));
        db.activate_user("alice", &token).unwrap();
        db.activate_user("alice", &token).unwrap();

        db.login("alice", "pw", Timestamp(5)).unwrap();
        assert!(matches!(db.login("alice", "nope", Timestamp(6)), Err(CoreError::BadCredentials)));
        assert!(matches!(db.login("ghost", "pw", Timestamp(6)), Err(CoreError::BadCredentials)));
        assert_eq!(db.user("alice").unwrap().unwrap().last_login, Timestamp(5));
        assert_eq!(db.trust_of("alice").unwrap().unwrap(), 1.0);
    }

    #[test]
    fn duplicate_email_is_rejected_even_with_case_tricks() {
        let db = ReputationDb::in_memory("pepper");
        db.register_user("alice", "pw", "same@x.com", Timestamp(0), &mut rng()).unwrap();
        let err = db.register_user("bob", "pw", " SAME@X.COM ", Timestamp(0), &mut rng());
        assert!(matches!(err, Err(CoreError::DuplicateEmail)));
        assert!(db.email_in_use("same@x.com").unwrap());
        assert!(!db.email_in_use("other@x.com").unwrap());
        // The failed registration left no partial state behind.
        assert!(db.user("bob").unwrap().is_none());
    }

    #[test]
    fn duplicate_username_is_rejected() {
        let db = ReputationDb::in_memory("pepper");
        db.register_user("alice", "pw", "a@x.com", Timestamp(0), &mut rng()).unwrap();
        assert!(matches!(
            db.register_user("alice", "pw", "b@x.com", Timestamp(0), &mut rng()),
            Err(CoreError::DuplicateUsername(_))
        ));
    }

    #[test]
    fn username_validation() {
        let db = ReputationDb::in_memory("pepper");
        let mut r = rng();
        for bad in ["ab", "x".repeat(33).as_str(), "has space", "__bootstrap_1", "__x_y", "emoji😀"]
        {
            assert!(
                matches!(
                    db.register_user(bad, "pw", "e@x.com", Timestamp(0), &mut r),
                    Err(CoreError::InvalidInput(_))
                ),
                "{bad:?} should be rejected"
            );
        }
        db.register_user("ok_name-1", "pw", "ok@x.com", Timestamp(0), &mut r).unwrap();
    }

    #[test]
    fn one_vote_per_user_per_software() {
        let db = db_with_member();
        db.register_software(&sw_id(1), "app.exe", 100, None, None, Timestamp(0)).unwrap();
        db.submit_vote("alice", &sw_id(1), 3, vec![], Timestamp(1)).unwrap();
        db.submit_vote("alice", &sw_id(1), 9, vec!["tracking".into()], Timestamp(2)).unwrap();
        assert_eq!(db.vote_count(), 1, "re-voting replaces, never duplicates");
        let vote = db.vote_of("alice", &sw_id(1)).unwrap().unwrap();
        assert_eq!(vote.score, 9);
        assert_eq!(vote.behaviours, vec!["tracking".to_string()]);
    }

    #[test]
    fn votes_require_active_user_known_software_and_legal_score() {
        let db = db_with_member();
        db.register_software(&sw_id(1), "app.exe", 100, None, None, Timestamp(0)).unwrap();
        assert!(matches!(
            db.submit_vote("alice", &sw_id(1), 0, vec![], Timestamp(1)),
            Err(CoreError::InvalidScore(0))
        ));
        assert!(matches!(
            db.submit_vote("alice", &sw_id(1), 11, vec![], Timestamp(1)),
            Err(CoreError::InvalidScore(11))
        ));
        assert!(matches!(
            db.submit_vote("ghost", &sw_id(1), 5, vec![], Timestamp(1)),
            Err(CoreError::UnknownUser(_))
        ));
        assert!(matches!(
            db.submit_vote("alice", &sw_id(9), 5, vec![], Timestamp(1)),
            Err(CoreError::UnknownSoftware(_))
        ));

        // Registered but unactivated users cannot vote.
        let mut r = rng();
        db.register_user("newbie", "pw", "n@x.com", Timestamp(0), &mut r).unwrap();
        assert!(matches!(
            db.submit_vote("newbie", &sw_id(1), 5, vec![], Timestamp(1)),
            Err(CoreError::NotActivated(_))
        ));
    }

    #[test]
    fn report_fields_are_bounded_where_they_enter_the_db() {
        let db = db_with_member();
        let long_field = "f".repeat(MAX_SOFTWARE_FIELD_LEN + 1);
        for (file_name, company) in [(long_field.as_str(), None), ("app.exe", Some(&long_field))] {
            assert!(matches!(
                db.register_software(&sw_id(1), file_name, 1, company.cloned(), None, Timestamp(0)),
                Err(CoreError::InvalidInput(_))
            ));
        }
        let longest = "f".repeat(MAX_SOFTWARE_FIELD_LEN);
        assert!(db.register_software(&sw_id(1), &longest, 1, None, None, Timestamp(0)).unwrap());
        db.create_feed("feed-a", "alice", Timestamp(0)).unwrap();

        let at_limit = vec!["b".repeat(MAX_BEHAVIOUR_LEN)];
        let over = vec!["tracking".to_string(), "b".repeat(MAX_BEHAVIOUR_LEN + 1)];
        let bootstrap = |behaviours: &Vec<String>| {
            let entry = BootstrapEntry {
                software_id: sw_id(2),
                rating: 5.0,
                vote_count: 1,
                behaviours: behaviours.clone(),
            };
            db.bootstrap(&[entry], Timestamp(1))
        };
        for behaviours in [&over, &at_limit] {
            let results = [
                db.submit_vote("alice", &sw_id(1), 5, behaviours.clone(), Timestamp(1)),
                db.record_evidence(&sw_id(1), behaviours.clone(), "sandbox", Timestamp(1)),
                db.publish_feed_entry(
                    "alice",
                    "feed-a",
                    &sw_id(1),
                    5.0,
                    behaviours.clone(),
                    Timestamp(1),
                ),
                bootstrap(behaviours).map(|_| ()),
            ];
            for result in results {
                if behaviours == &over {
                    assert!(matches!(result, Err(CoreError::InvalidInput(_))), "{result:?}");
                } else {
                    result.unwrap();
                }
            }
        }
    }

    /// One member, one voice: a vote may name a behaviour once, and name at
    /// most as many as a report shows. Every entry point shares the bound.
    #[test]
    fn behaviour_lists_are_bounded_and_free_of_repeats() {
        let db = db_with_member();
        assert!(db.register_software(&sw_id(1), "app.exe", 1, None, None, Timestamp(0)).unwrap());
        db.create_feed("feed-a", "alice", Timestamp(0)).unwrap();
        let names = |n: usize| (0..n).map(|i| format!("b{i}")).collect::<Vec<_>>();
        let repeated = vec!["spyware".to_string(), "tracking".into(), "spyware".into()];
        for (behaviours, ok) in
            [(names(MAX_BEHAVIOURS), true), (names(MAX_BEHAVIOURS + 1), false), (repeated, false)]
        {
            let entry = BootstrapEntry {
                software_id: sw_id(2),
                rating: 5.0,
                vote_count: 1,
                behaviours: behaviours.clone(),
            };
            let results = [
                db.submit_vote("alice", &sw_id(1), 5, behaviours.clone(), Timestamp(1)),
                db.record_evidence(&sw_id(1), behaviours.clone(), "sandbox", Timestamp(1)),
                db.publish_feed_entry(
                    "alice",
                    "feed-a",
                    &sw_id(1),
                    5.0,
                    behaviours.clone(),
                    Timestamp(1),
                ),
                db.bootstrap(&[entry], Timestamp(1)).map(|_| ()),
            ];
            for result in results {
                assert_eq!(result.is_ok(), ok, "{} names: {result:?}", behaviours.len());
            }
        }
    }

    #[test]
    fn software_registration_first_report_wins() {
        let db = ReputationDb::in_memory("pepper");
        assert!(db
            .register_software(&sw_id(2), "a.exe", 10, Some("Acme".into()), None, Timestamp(0))
            .unwrap());
        assert!(!db
            .register_software(&sw_id(2), "b.exe", 99, Some("Evil".into()), None, Timestamp(1))
            .unwrap());
        let rec = db.software(&sw_id(2)).unwrap().unwrap();
        assert_eq!(rec.file_name, "a.exe");
        assert_eq!(rec.company.as_deref(), Some("Acme"));
    }

    #[test]
    fn software_id_validation() {
        let db = ReputationDb::in_memory("pepper");
        for bad in ["", "xyz", "12345", &"g".repeat(40)] {
            assert!(db.register_software(bad, "f", 0, None, None, Timestamp(0)).is_err());
        }
        // 64-char (SHA-256) ids are also accepted.
        db.register_software(&"ab".repeat(32), "f", 0, None, None, Timestamp(0)).unwrap();
    }

    #[test]
    fn aggregation_respects_24h_schedule_and_trust() {
        let db = db_with_member();
        member(&db, "expert", Timestamp(0));
        db.register_software(&sw_id(1), "app.exe", 100, None, None, Timestamp(0)).unwrap();
        db.submit_vote("alice", &sw_id(1), 10, vec![], Timestamp(10)).unwrap();
        db.submit_vote("expert", &sw_id(1), 2, vec![], Timestamp(10)).unwrap();
        // Give the expert a big trust factor (cap allows +5 in week 0).
        db.adjust_trust("expert", 5.0, Timestamp(20)).unwrap();

        assert_eq!(db.run_aggregation_if_due(Timestamp(100)).unwrap(), 1);
        let r1 = db.rating(&sw_id(1)).unwrap().unwrap();
        // weighted: (10*1 + 2*6) / 7 = 22/7 ≈ 3.14
        assert!((r1.rating - 22.0 / 7.0).abs() < 1e-12);
        assert_eq!(r1.vote_count, 2);

        // Not due again until +24 h; a fresh vote waits in the dirty set
        // until the schedule fires, then is folded in incrementally.
        db.submit_vote("alice", &sw_id(1), 9, vec![], Timestamp(150)).unwrap();
        assert_eq!(db.run_aggregation_if_due(Timestamp(200)).unwrap(), 0);
        assert_eq!(db.dirty_count(), 1);
        assert_eq!(db.run_aggregation_if_due(Timestamp(100 + DAY_SECS)).unwrap(), 1);
        assert_eq!(db.dirty_count(), 0);
        // Nothing dirty → the next due batch recomputes nothing.
        assert_eq!(db.run_aggregation_if_due(Timestamp(100 + 2 * DAY_SECS)).unwrap(), 0);
    }

    #[test]
    fn comments_and_remarks_drive_trust() {
        let db = db_with_member();
        member(&db, "bob", Timestamp(0));
        member(&db, "carol", Timestamp(0));
        db.register_software(&sw_id(1), "app.exe", 100, None, None, Timestamp(0)).unwrap();

        let id = db.submit_comment("alice", &sw_id(1), "shows pop-ups", Timestamp(1)).unwrap();
        assert!(matches!(
            db.remark_comment("alice", id, true, Timestamp(2)),
            Err(CoreError::SelfRemark)
        ));

        db.remark_comment("bob", id, true, Timestamp(2)).unwrap();
        assert_eq!(db.trust_of("alice").unwrap().unwrap(), 2.0);
        // Idempotent repeat.
        db.remark_comment("bob", id, true, Timestamp(3)).unwrap();
        assert_eq!(db.trust_of("alice").unwrap().unwrap(), 2.0);
        assert_eq!(db.remark_score(id).unwrap(), 1);

        db.remark_comment("carol", id, false, Timestamp(4)).unwrap();
        assert_eq!(db.trust_of("alice").unwrap().unwrap(), 1.0);
        assert_eq!(db.remark_score(id).unwrap(), 0);

        // Bob flips his remark: -2 relative, floored at 1.
        db.remark_comment("bob", id, false, Timestamp(5)).unwrap();
        assert_eq!(db.trust_of("alice").unwrap().unwrap(), 1.0);
        assert_eq!(db.remark_score(id).unwrap(), -2);

        let comments = db.comments_for(&sw_id(1)).unwrap();
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].remark_score, -2);
    }

    #[test]
    fn trust_growth_cap_applies_through_remarks() {
        let db = db_with_member();
        db.register_software(&sw_id(1), "app.exe", 100, None, None, Timestamp(0)).unwrap();
        let id = db.submit_comment("alice", &sw_id(1), "useful info", Timestamp(1)).unwrap();
        // 20 distinct fans this week — growth still capped at +5.
        for i in 0..20 {
            let fan = format!("fan{i:02}");
            member(&db, &fan, Timestamp(0));
            db.remark_comment(&fan, id, true, Timestamp(10 + i)).unwrap();
        }
        assert_eq!(db.trust_of("alice").unwrap().unwrap(), 6.0);
        // Next week another 20 fans: +5 more.
        for i in 20..40 {
            let fan = format!("fan{i:02}");
            member(&db, &fan, Timestamp(0));
            db.remark_comment(&fan, id, true, Timestamp(WEEK_SECS + i)).unwrap();
        }
        assert_eq!(db.trust_of("alice").unwrap().unwrap(), 11.0);
    }

    #[test]
    fn moderation_queue_flow() {
        let store = Arc::new(Store::in_memory());
        let db = ReputationDb::with_moderation(
            store,
            SecretPepper::new("p"),
            ModerationPolicy::PreApproval,
        );
        member(&db, "alice", Timestamp(0));
        member(&db, "bob", Timestamp(0));
        db.register_software(&sw_id(1), "app.exe", 100, None, None, Timestamp(0)).unwrap();

        let id = db.submit_comment("alice", &sw_id(1), "pending text", Timestamp(10)).unwrap();
        assert!(db.comments_for(&sw_id(1)).unwrap().is_empty(), "not yet published");
        assert!(matches!(
            db.remark_comment("bob", id, true, Timestamp(11)),
            Err(CoreError::CommentNotPublished(_))
        ));
        assert_eq!(db.pending_comments().unwrap().len(), 1);

        db.moderate_comment(id, ModerationDecision::Approve, Timestamp(100)).unwrap();
        assert_eq!(db.comments_for(&sw_id(1)).unwrap().len(), 1);
        let stats = db.moderation_stats();
        assert_eq!(stats.approved, 1);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.total_review_latency_secs, 90);

        // Second comment rejected: never visible.
        let id2 = db.submit_comment("alice", &sw_id(1), "spam", Timestamp(200)).unwrap();
        db.moderate_comment(id2, ModerationDecision::Reject, Timestamp(300)).unwrap();
        assert_eq!(db.comments_for(&sw_id(1)).unwrap().len(), 1);
        // Double moderation is invalid.
        assert!(db.moderate_comment(id2, ModerationDecision::Approve, Timestamp(301)).is_err());
    }

    #[test]
    fn vendor_report_averages_software_ratings() {
        let db = db_with_member();
        for (tag, score) in [(1u8, 4u8), (2, 8)] {
            db.register_software(&sw_id(tag), "t.exe", 10, Some("Acme".into()), None, Timestamp(0))
                .unwrap();
            db.submit_vote("alice", &sw_id(tag), score, vec![], Timestamp(1)).unwrap();
        }
        db.register_software(&sw_id(3), "o.exe", 10, Some("Other".into()), None, Timestamp(0))
            .unwrap();
        db.force_aggregation(Timestamp(10)).unwrap();

        let report = db.vendor_report("Acme").unwrap();
        assert_eq!(report.software_count, 2);
        assert_eq!(report.rating.unwrap(), 6.0);

        let unknown = db.vendor_report("Nobody").unwrap();
        assert_eq!(unknown.software_count, 0);
        assert_eq!(unknown.rating, None);
    }

    #[test]
    fn bootstrap_seeds_votes_with_seed_trust() {
        let db = ReputationDb::in_memory("pepper");
        let entries = vec![BootstrapEntry {
            software_id: sw_id(7),
            rating: 8.0,
            vote_count: 25,
            behaviours: vec![],
        }];
        assert_eq!(db.bootstrap(&entries, Timestamp(0)).unwrap(), 25);
        assert_eq!(db.vote_count(), 25);
        assert!(db.software(&sw_id(7)).unwrap().is_some());
        db.force_aggregation(Timestamp(1)).unwrap();
        let rating = db.rating(&sw_id(7)).unwrap().unwrap();
        assert!((rating.rating - 8.0).abs() < 0.05);
        assert_eq!(db.trust_of("__bootstrap_0").unwrap().unwrap(), BOOTSTRAP_SEED_TRUST);
    }

    #[test]
    fn software_report_combines_everything() {
        let db = db_with_member();
        db.register_software(
            &sw_id(1),
            "app.exe",
            10,
            Some("Acme".into()),
            Some("1.0".into()),
            Timestamp(0),
        )
        .unwrap();
        db.submit_vote("alice", &sw_id(1), 7, vec!["popup_ads".into()], Timestamp(1)).unwrap();
        db.submit_comment("alice", &sw_id(1), "it's fine", Timestamp(2)).unwrap();
        db.force_aggregation(Timestamp(3)).unwrap();

        let report = db.software_report(&sw_id(1)).unwrap().unwrap();
        assert_eq!(report.software.file_name, "app.exe");
        assert_eq!(report.rating.as_ref().unwrap().vote_count, 1);
        assert_eq!(report.rating.unwrap().behaviours[0].0, "popup_ads");
        assert_eq!(report.comments.len(), 1);

        assert!(db.software_report(&sw_id(9)).unwrap().is_none());
    }

    #[test]
    fn evidence_records_and_surfaces_in_reports() {
        let db = db_with_member();
        db.register_software(&sw_id(1), "app.exe", 10, None, None, Timestamp(0)).unwrap();
        // Evidence for unknown software is rejected.
        assert!(matches!(
            db.record_evidence(&sw_id(9), vec!["tracking".into()], "sandbox", Timestamp(1)),
            Err(CoreError::UnknownSoftware(_))
        ));
        db.record_evidence(&sw_id(1), vec!["tracking".into()], "sandbox-v1", Timestamp(1)).unwrap();
        let ev = db.evidence(&sw_id(1)).unwrap().unwrap();
        assert_eq!(ev.behaviours, vec!["tracking".to_string()]);
        assert_eq!(ev.analyzer, "sandbox-v1");
        // Latest analysis wins.
        db.record_evidence(&sw_id(1), vec!["popup_ads".into()], "sandbox-v2", Timestamp(2))
            .unwrap();
        let report = db.software_report(&sw_id(1)).unwrap().unwrap();
        assert_eq!(report.evidence.unwrap().behaviours, vec!["popup_ads".to_string()]);
    }

    #[test]
    fn feeds_enforce_ownership_and_validation() {
        let db = db_with_member();
        member(&db, "rival", Timestamp(0));
        db.register_software(&sw_id(1), "app.exe", 10, None, None, Timestamp(0)).unwrap();

        // Name validation.
        assert!(db.create_feed("x", "alice", Timestamp(0)).is_err());
        assert!(db.create_feed("Has Caps", "alice", Timestamp(0)).is_err());
        db.create_feed("av-lab", "alice", Timestamp(0)).unwrap();
        assert!(matches!(
            db.create_feed("av-lab", "rival", Timestamp(0)),
            Err(CoreError::FeedExists(_))
        ));
        assert_eq!(db.feed("av-lab").unwrap().unwrap().publisher, "alice");

        // Only the owner publishes.
        assert!(matches!(
            db.publish_feed_entry("rival", "av-lab", &sw_id(1), 2.0, vec![], Timestamp(1)),
            Err(CoreError::NotFeedOwner { .. })
        ));
        // Rating range enforced.
        assert!(db
            .publish_feed_entry("alice", "av-lab", &sw_id(1), 0.5, vec![], Timestamp(1))
            .is_err());
        assert!(db
            .publish_feed_entry("alice", "av-lab", &sw_id(1), 11.0, vec![], Timestamp(1))
            .is_err());
        // Unknown feed / unknown software.
        assert!(matches!(
            db.publish_feed_entry("alice", "ghost", &sw_id(1), 5.0, vec![], Timestamp(1)),
            Err(CoreError::UnknownFeed(_))
        ));
        assert!(matches!(
            db.publish_feed_entry("alice", "av-lab", &sw_id(9), 5.0, vec![], Timestamp(1)),
            Err(CoreError::UnknownSoftware(_))
        ));

        db.publish_feed_entry(
            "alice",
            "av-lab",
            &sw_id(1),
            2.5,
            vec!["tracking".into()],
            Timestamp(1),
        )
        .unwrap();
        let entry = db.feed_entry("av-lab", &sw_id(1)).unwrap().unwrap();
        assert_eq!(entry.rating, 2.5);
        // Re-publishing replaces.
        db.publish_feed_entry("alice", "av-lab", &sw_id(1), 3.0, vec![], Timestamp(2)).unwrap();
        assert_eq!(db.feed_entry("av-lab", &sw_id(1)).unwrap().unwrap().rating, 3.0);
        assert_eq!(db.feed_entries("av-lab").unwrap().len(), 1);
        assert!(db.feed_entry("av-lab", &sw_id(2)).unwrap().is_none());
    }

    #[test]
    fn search_and_browse_queries() {
        let db = db_with_member();
        db.register_software(
            &sw_id(1),
            "WeatherBar.exe",
            10,
            Some("Acme".into()),
            None,
            Timestamp(0),
        )
        .unwrap();
        db.register_software(&sw_id(2), "codec.exe", 10, Some("BadCo".into()), None, Timestamp(0))
            .unwrap();
        db.register_software(&sw_id(3), "player.exe", 10, Some("Acme".into()), None, Timestamp(0))
            .unwrap();
        db.submit_vote("alice", &sw_id(1), 9, vec![], Timestamp(1)).unwrap();
        db.submit_vote("alice", &sw_id(2), 2, vec![], Timestamp(1)).unwrap();
        db.force_aggregation(Timestamp(2)).unwrap();

        // Case-insensitive search over names and vendors.
        let hits = db.search_software("weather", 10).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].file_name, "WeatherBar.exe");
        assert_eq!(db.search_software("acme", 10).unwrap().len(), 2);
        assert_eq!(db.search_software("acme", 1).unwrap().len(), 1, "limit respected");
        assert!(db.search_software("nothing", 10).unwrap().is_empty());

        // Top/bottom rated.
        let top = db.top_rated(5).unwrap();
        assert_eq!(top[0].software_id, sw_id(1));
        let bottom = db.bottom_rated(5).unwrap();
        assert_eq!(bottom[0].software_id, sw_id(2));

        let stats = db.deployment_stats();
        assert_eq!(stats.users, 1);
        assert_eq!(stats.software, 3);
        assert_eq!(stats.votes, 2);
        assert_eq!(stats.rated_software, 2);
    }

    #[test]
    fn persisted_db_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("softrep-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = Arc::new(Store::open(&dir).unwrap());
            let db = ReputationDb::new(store, SecretPepper::new("p"));
            member(&db, "alice", Timestamp(0));
            db.register_software(&sw_id(1), "app.exe", 10, None, None, Timestamp(0)).unwrap();
            db.submit_vote("alice", &sw_id(1), 6, vec![], Timestamp(1)).unwrap();
            db.force_aggregation(Timestamp(2)).unwrap();
            db.store().sync().unwrap();
        }
        let store = Arc::new(Store::open(&dir).unwrap());
        let db = ReputationDb::new(store, SecretPepper::new("p"));
        assert_eq!(db.vote_count(), 1);
        assert_eq!(db.rating(&sw_id(1)).unwrap().unwrap().rating, 6.0);
        db.login("alice", "pw", Timestamp(10)).unwrap();
    }
}
