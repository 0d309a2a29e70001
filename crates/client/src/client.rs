//! The full execution-time client flow (§3.1).
//!
//! Decision pipeline for every pending execution:
//!
//! 1. **White/black lists** — listed software is decided locally, with no
//!    server round-trip and no dialog (DESIGN.md invariant 8).
//! 2. **Signature check** — a valid signature from a trusted vendor
//!    auto-allows and whitelists (§4.2).
//! 3. **Server query** — fetch the aggregated report (registering the
//!    executable's metadata if the server has never seen it).
//! 4. **Policy manager** — if the user installed a policy, it may decide
//!    without interaction (§4.2).
//! 5. **User dialog** — otherwise the user decides, optionally updating
//!    the lists ("allow always" / "deny always").
//!
//! After an allowed execution the rating-prompt policy may ask the user to
//! rate the program (§3.1's 50-execution / 2-per-week rules); ratings are
//! submitted as votes.

use std::collections::HashMap;
use std::sync::Arc;

use softrep_core::clock::{Clock, Timestamp};
use softrep_core::identity::SyntheticExecutable;
use softrep_policy::{evaluate, parse_policy, Action, ExecutionContext, Policy, PolicyError};
use softrep_proto::message::SoftwareInfo;
use softrep_proto::{Request, Response};

use crate::connector::Connector;
use crate::lists::{ListEntry, WhiteBlackLists};
use crate::os::{ExecutionHook, HookVerdict};
use crate::prompt::RatingPromptPolicy;
use crate::signature::{CodeSignature, SignatureStatus, TrustedVendorRegistry};

/// How the user answers the execution dialog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserChoice {
    /// Run it this time.
    AllowOnce,
    /// Run it and whitelist it.
    AllowAlways,
    /// Block it this time.
    DenyOnce,
    /// Block it and blacklist it.
    DenyAlways,
}

/// Everything shown in the execution dialog.
#[derive(Debug, Clone)]
pub struct PromptContext {
    /// File name of the pending executable.
    pub file_name: String,
    /// Vendor declared in the binary.
    pub company: Option<String>,
    /// The server's report, if the software is known.
    pub report: Option<SoftwareInfo>,
    /// Signature verification result.
    pub signature: SignatureStatus,
}

/// A rating the user chose to submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatingSubmission {
    /// Score 1–10.
    pub score: u8,
    /// Observed behaviours.
    pub behaviours: Vec<String>,
    /// Optional free-text comment.
    pub comment: Option<String>,
}

/// The human (or simulated agent) behind the keyboard.
pub trait UserAgent {
    /// Answer the execution dialog.
    fn decide(&mut self, ctx: &PromptContext) -> UserChoice;

    /// Answer a rating prompt; `None` dismisses it.
    fn rate(&mut self, file_name: &str, report: Option<&SoftwareInfo>) -> Option<RatingSubmission>;
}

/// Which pipeline stage decided an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// Local white list.
    Whitelist,
    /// Local black list.
    Blacklist,
    /// Trusted vendor signature.
    TrustedSignature,
    /// The policy manager.
    Policy,
    /// The interactive dialog.
    User,
}

/// Result of one execution attempt through the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Was the program allowed to run?
    pub allowed: bool,
    /// Which stage decided.
    pub source: DecisionSource,
    /// Did the user see the allow/deny dialog?
    pub asked_user: bool,
    /// Was a rating prompt shown after execution?
    pub rating_prompted: bool,
    /// Did a vote reach the server?
    pub rating_submitted: bool,
}

/// Interaction counters (experiments D5 and D9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Execution attempts handled.
    pub executions: u64,
    /// Decisions taken from the lists.
    pub list_decisions: u64,
    /// Auto-allows from trusted signatures.
    pub signature_allows: u64,
    /// Decisions taken by the policy manager.
    pub policy_decisions: u64,
    /// Times the dialog was shown.
    pub user_prompts: u64,
    /// Rating prompts shown.
    pub rating_prompts: u64,
    /// Votes submitted.
    pub votes_submitted: u64,
    /// Server queries issued.
    pub server_queries: u64,
    /// Report-cache hits.
    pub cache_hits: u64,
}

/// The reputation client.
pub struct ReputationClient<C: Connector> {
    connector: C,
    clock: Arc<dyn Clock>,
    session: Option<String>,
    username: Option<String>,
    lists: WhiteBlackLists,
    registry: TrustedVendorRegistry,
    prompt_policy: RatingPromptPolicy,
    policy: Option<Policy>,
    report_cache: HashMap<String, (Timestamp, Option<SoftwareInfo>)>,
    vendor_cache: HashMap<String, (Timestamp, Option<f64>)>,
    feed_cache: FeedCache,
    subscribed_feeds: Vec<String>,
    cache_ttl_secs: u64,
    stats: ClientStats,
}

/// Cached feed verdicts: (feed, software id) → fetched-at + optional
/// (rating, behaviours).
type FeedCache = HashMap<(String, String), (Timestamp, Option<(f64, Vec<String>)>)>;

/// Client-side failures surfaced to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client error: {}", self.0)
    }
}

impl std::error::Error for ClientError {}

impl<C: Connector> ReputationClient<C> {
    /// A client with the paper's default prompt policy and a 1 h report
    /// cache.
    pub fn new(connector: C, clock: Arc<dyn Clock>) -> Self {
        ReputationClient {
            connector,
            clock,
            session: None,
            username: None,
            lists: WhiteBlackLists::new(),
            registry: TrustedVendorRegistry::new(),
            prompt_policy: RatingPromptPolicy::default(),
            policy: None,
            report_cache: HashMap::new(),
            vendor_cache: HashMap::new(),
            feed_cache: FeedCache::new(),
            subscribed_feeds: Vec::new(),
            cache_ttl_secs: 3_600,
            stats: ClientStats::default(),
        }
    }

    /// Replace the rating-prompt policy (experiment D5 sweeps this).
    pub fn set_prompt_policy(&mut self, policy: RatingPromptPolicy) {
        self.prompt_policy = policy;
    }

    /// Install (or replace) the policy-manager program.
    pub fn set_policy_text(&mut self, text: &str) -> Result<(), PolicyError> {
        self.policy = Some(parse_policy(text)?);
        Ok(())
    }

    /// Remove the policy manager.
    pub fn clear_policy(&mut self) {
        self.policy = None;
    }

    /// Subscribe to a published rating feed (§4.2): its verdicts become
    /// visible to the policy engine as `feed_rating` and merge into the
    /// behaviour set.
    pub fn subscribe_feed(&mut self, feed: impl Into<String>) {
        let feed = feed.into();
        if !self.subscribed_feeds.contains(&feed) {
            self.subscribed_feeds.push(feed);
        }
    }

    /// Drop a feed subscription.
    pub fn unsubscribe_feed(&mut self, feed: &str) {
        self.subscribed_feeds.retain(|f| f != feed);
        self.feed_cache.retain(|(f, _), _| f != feed);
    }

    /// The feeds currently subscribed.
    pub fn subscribed_feeds(&self) -> &[String] {
        &self.subscribed_feeds
    }

    /// Create a feed owned by the logged-in user.
    pub fn create_feed(&mut self, name: &str) -> Result<(), ClientError> {
        let Some(session) = self.session.clone() else {
            return Err(ClientError("must be logged in to create a feed".into()));
        };
        match self.connector.call(&Request::CreateFeed { session, name: name.into() }) {
            Response::Ok => Ok(()),
            Response::Error { code, message } => {
                Err(ClientError(format!("create-feed failed ({code}): {message}")))
            }
            other => Err(ClientError(format!("unexpected response {other:?}"))),
        }
    }

    /// Publish a verdict into a feed the logged-in user owns.
    pub fn publish_feed_entry(
        &mut self,
        feed: &str,
        software_id: &str,
        rating: f64,
        behaviours: Vec<String>,
    ) -> Result<(), ClientError> {
        let Some(session) = self.session.clone() else {
            return Err(ClientError("must be logged in to publish".into()));
        };
        match self.connector.call(&Request::PublishFeedEntry {
            session,
            feed: feed.into(),
            software_id: software_id.into(),
            rating,
            behaviours,
        }) {
            Response::Ok => Ok(()),
            Response::Error { code, message } => {
                Err(ClientError(format!("publish failed ({code}): {message}")))
            }
            other => Err(ClientError(format!("unexpected response {other:?}"))),
        }
    }

    /// The local lists (mutable, e.g. to pre-whitelist OS components).
    pub fn lists_mut(&mut self) -> &mut WhiteBlackLists {
        &mut self.lists
    }

    /// The trusted-vendor registry.
    pub fn registry_mut(&mut self) -> &mut TrustedVendorRegistry {
        &mut self.registry
    }

    /// Interaction counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The logged-in username, if any.
    pub fn username(&self) -> Option<&str> {
        self.username.as_deref()
    }

    /// Full account setup: puzzle → register → activate → login.
    ///
    /// The activation token is returned by the server in-band (the
    /// simulated e-mail loop); a production deployment would read it from
    /// the user's inbox instead.
    pub fn register_and_login(
        &mut self,
        username: &str,
        password: &str,
        email: &str,
    ) -> Result<(), ClientError> {
        let challenge = match self.connector.call(&Request::GetPuzzle) {
            Response::Puzzle { challenge } => challenge,
            other => return Err(ClientError(format!("expected puzzle, got {other:?}"))),
        };
        let parsed = softrep_crypto::puzzle::Challenge::decode(&challenge)
            .ok_or_else(|| ClientError("server sent malformed challenge".into()))?;
        let (solution, _cost) = parsed.solve();

        let resp = self.connector.call(&Request::Register {
            username: username.into(),
            password: password.into(),
            email: email.into(),
            puzzle_challenge: challenge,
            puzzle_solution: solution.nonce,
        });
        let token = match resp {
            Response::Registered { activation_token } => activation_token,
            Response::Error { code, message } => {
                return Err(ClientError(format!("registration failed ({code}): {message}")))
            }
            other => return Err(ClientError(format!("unexpected response {other:?}"))),
        };
        match self.connector.call(&Request::Activate { username: username.into(), token }) {
            Response::Ok => {}
            other => return Err(ClientError(format!("activation failed: {other:?}"))),
        }
        self.login(username, password)
    }

    /// Log in to an existing, activated account.
    pub fn login(&mut self, username: &str, password: &str) -> Result<(), ClientError> {
        match self
            .connector
            .call(&Request::Login { username: username.into(), password: password.into() })
        {
            Response::Session { token } => {
                self.session = Some(token);
                self.username = Some(username.to_string());
                Ok(())
            }
            Response::Error { code, message } => {
                Err(ClientError(format!("login failed ({code}): {message}")))
            }
            other => Err(ClientError(format!("unexpected response {other:?}"))),
        }
    }

    /// The §3.1 execution flow. `signature` is the detached code signature
    /// shipped with the binary, if any.
    pub fn handle_execution(
        &mut self,
        exe: &SyntheticExecutable,
        signature: Option<&CodeSignature>,
        user: &mut dyn UserAgent,
    ) -> ExecOutcome {
        self.stats.executions += 1;
        let id_hex = exe.id_sha1().to_hex();
        let now = self.clock.now();

        // Stage 1: the lists decide without any traffic or interaction.
        match self.lists.lookup(&id_hex) {
            ListEntry::White => {
                self.stats.list_decisions += 1;
                return self.after_allow(
                    &id_hex,
                    exe,
                    None,
                    DecisionSource::Whitelist,
                    false,
                    user,
                    now,
                );
            }
            ListEntry::Black => {
                self.stats.list_decisions += 1;
                return ExecOutcome {
                    allowed: false,
                    source: DecisionSource::Blacklist,
                    asked_user: false,
                    rating_prompted: false,
                    rating_submitted: false,
                };
            }
            ListEntry::Unlisted => {}
        }

        // Stage 2: trusted signatures auto-allow and whitelist.
        let sig_status = self.registry.verify(&exe.to_bytes(), signature);
        if sig_status == SignatureStatus::SignedTrusted {
            self.stats.signature_allows += 1;
            self.lists.whitelist(&id_hex);
            return self.after_allow(
                &id_hex,
                exe,
                None,
                DecisionSource::TrustedSignature,
                false,
                user,
                now,
            );
        }

        // Stage 3: consult the server.
        let report = self.fetch_report(&id_hex, exe, now);

        // Stage 4: the policy manager, if installed.
        if let Some(policy) = self.policy.clone() {
            let ctx = self.build_policy_context(&id_hex, exe, &report, sig_status, now);
            match evaluate(&policy, &ctx) {
                Action::Allow => {
                    self.stats.policy_decisions += 1;
                    return self.after_allow(
                        &id_hex,
                        exe,
                        report,
                        DecisionSource::Policy,
                        false,
                        user,
                        now,
                    );
                }
                Action::Deny => {
                    self.stats.policy_decisions += 1;
                    return ExecOutcome {
                        allowed: false,
                        source: DecisionSource::Policy,
                        asked_user: false,
                        rating_prompted: false,
                        rating_submitted: false,
                    };
                }
                Action::Ask => {}
            }
        }

        // Stage 5: the dialog.
        self.stats.user_prompts += 1;
        let ctx = PromptContext {
            file_name: exe.file_name.clone(),
            company: exe.company.clone(),
            report: report.clone(),
            signature: sig_status,
        };
        match user.decide(&ctx) {
            UserChoice::AllowOnce => {
                self.after_allow(&id_hex, exe, report, DecisionSource::User, true, user, now)
            }
            UserChoice::AllowAlways => {
                self.lists.whitelist(&id_hex);
                self.after_allow(&id_hex, exe, report, DecisionSource::User, true, user, now)
            }
            UserChoice::DenyOnce => ExecOutcome {
                allowed: false,
                source: DecisionSource::User,
                asked_user: true,
                rating_prompted: false,
                rating_submitted: false,
            },
            UserChoice::DenyAlways => {
                self.lists.blacklist(&id_hex);
                ExecOutcome {
                    allowed: false,
                    source: DecisionSource::User,
                    asked_user: true,
                    rating_prompted: false,
                    rating_submitted: false,
                }
            }
        }
    }

    /// Shared allowed-path tail: execution counting + rating prompt.
    ///
    /// Rating prompts apply to every *ran* program regardless of how it was
    /// allowed — the paper asks users to rate "the software that they use
    /// most frequently", which is precisely the whitelisted software.
    #[allow(
        clippy::too_many_arguments,
        reason = "the decision, the program and its prompt context travel together"
    )]
    fn after_allow(
        &mut self,
        id_hex: &str,
        exe: &SyntheticExecutable,
        report: Option<SoftwareInfo>,
        source: DecisionSource,
        asked_user: bool,
        user: &mut dyn UserAgent,
        now: Timestamp,
    ) -> ExecOutcome {
        let mut rating_prompted = false;
        let mut rating_submitted = false;
        if self.prompt_policy.on_execution(id_hex, now) {
            rating_prompted = true;
            self.stats.rating_prompts += 1;
            if let Some(submission) = user.rate(&exe.file_name, report.as_ref()) {
                rating_submitted = self.submit_rating(id_hex, exe, &submission);
                if rating_submitted {
                    self.prompt_policy.mark_rated(id_hex);
                }
            }
        }
        ExecOutcome { allowed: true, source, asked_user, rating_prompted, rating_submitted }
    }

    fn submit_rating(
        &mut self,
        id_hex: &str,
        exe: &SyntheticExecutable,
        submission: &RatingSubmission,
    ) -> bool {
        let Some(session) = self.session.clone() else { return false };
        // Make sure the server knows the executable before voting on it.
        self.ensure_registered(id_hex, exe);
        let resp = self.connector.call(&Request::SubmitVote {
            session: session.clone(),
            software_id: id_hex.to_string(),
            score: submission.score,
            behaviours: submission.behaviours.clone(),
        });
        if resp != Response::Ok {
            return false;
        }
        self.stats.votes_submitted += 1;
        if let Some(comment) = &submission.comment {
            let _ = self.connector.call(&Request::SubmitComment {
                session,
                software_id: id_hex.to_string(),
                text: comment.clone(),
            });
        }
        // The published rating changed only for the next batch; drop the
        // cached report anyway so tests observe fresh data.
        self.report_cache.remove(id_hex);
        true
    }

    fn ensure_registered(&mut self, id_hex: &str, exe: &SyntheticExecutable) {
        let _ = self.connector.call(&Request::RegisterSoftware {
            software_id: id_hex.to_string(),
            file_name: exe.file_name.clone(),
            file_size: exe.file_size(),
            company: exe.company.clone(),
            version: exe.version.clone(),
        });
    }

    fn fetch_report(
        &mut self,
        id_hex: &str,
        exe: &SyntheticExecutable,
        now: Timestamp,
    ) -> Option<SoftwareInfo> {
        if let Some((cached_at, report)) = self.report_cache.get(id_hex) {
            if now.since(*cached_at) < self.cache_ttl_secs {
                self.stats.cache_hits += 1;
                return report.clone();
            }
        }
        self.stats.server_queries += 1;
        let report = match self
            .connector
            .call(&Request::QuerySoftware { software_id: id_hex.to_string() })
        {
            Response::Software(info) => Some(info),
            Response::UnknownSoftware { .. } => {
                self.ensure_registered(id_hex, exe);
                None
            }
            _ => None,
        };
        self.report_cache.insert(id_hex.to_string(), (now, report.clone()));
        report
    }

    fn vendor_rating(&mut self, vendor: &str, now: Timestamp) -> Option<f64> {
        if let Some((cached_at, rating)) = self.vendor_cache.get(vendor) {
            if now.since(*cached_at) < self.cache_ttl_secs {
                return *rating;
            }
        }
        self.stats.server_queries += 1;
        let rating = match self.connector.call(&Request::QueryVendor { vendor: vendor.to_string() })
        {
            Response::Vendor { rating, .. } => rating,
            _ => None,
        };
        self.vendor_cache.insert(vendor.to_string(), (now, rating));
        rating
    }

    /// The first subscribed feed's verdict covering `software_id`, if any
    /// (subscription order is priority order).
    fn feed_verdict(&mut self, software_id: &str, now: Timestamp) -> Option<(f64, Vec<String>)> {
        for feed in self.subscribed_feeds.clone() {
            let key = (feed.clone(), software_id.to_string());
            if let Some((cached_at, verdict)) = self.feed_cache.get(&key) {
                if now.since(*cached_at) < self.cache_ttl_secs {
                    if let Some(v) = verdict {
                        return Some(v.clone());
                    }
                    continue;
                }
            }
            self.stats.server_queries += 1;
            let verdict = match self.connector.call(&Request::QueryFeedEntry {
                feed: feed.clone(),
                software_id: software_id.to_string(),
            }) {
                Response::FeedEntry { rating, behaviours, .. } => Some((rating, behaviours)),
                _ => None,
            };
            self.feed_cache.insert(key, (now, verdict.clone()));
            if let Some(v) = verdict {
                return Some(v);
            }
        }
        None
    }

    fn build_policy_context(
        &mut self,
        id_hex: &str,
        exe: &SyntheticExecutable,
        report: &Option<SoftwareInfo>,
        sig_status: SignatureStatus,
        now: Timestamp,
    ) -> ExecutionContext {
        let vendor_rating =
            exe.company.as_deref().and_then(|vendor| self.vendor_rating(vendor, now));
        let feed_verdict = self.feed_verdict(id_hex, now);
        let mut behaviours = report.as_ref().map(|r| r.behaviours.clone()).unwrap_or_default();
        if let Some((_, feed_behaviours)) = &feed_verdict {
            for b in feed_behaviours {
                if !behaviours.contains(b) {
                    behaviours.push(b.clone());
                }
            }
        }
        ExecutionContext {
            rating: report.as_ref().and_then(|r| r.rating),
            vote_count: report.as_ref().map_or(0, |r| r.vote_count),
            vendor_rating,
            file_size: exe.file_size(),
            behaviours,
            verified_behaviours: report
                .as_ref()
                .map(|r| r.verified_behaviours.clone())
                .unwrap_or_default(),
            feed_rating: feed_verdict.map(|(rating, _)| rating),
            vendor: exe.company.clone(),
            signed: matches!(
                sig_status,
                SignatureStatus::SignedTrusted | SignatureStatus::SignedUntrusted
            ),
            signed_by_trusted: sig_status == SignatureStatus::SignedTrusted,
            known: report.is_some(),
        }
    }
}

/// Adapter wiring a client + user agent + signature store to the OS hook
/// point, so [`crate::os::SimOs::launch`] drives the full pipeline.
pub struct ClientHook<'a, C: Connector> {
    client: &'a mut ReputationClient<C>,
    user: &'a mut dyn UserAgent,
    /// Detached signatures by software id hex.
    signatures: &'a HashMap<String, CodeSignature>,
    /// Outcome of the last decision, for caller inspection.
    pub last_outcome: Option<ExecOutcome>,
}

impl<'a, C: Connector> ClientHook<'a, C> {
    /// Assemble the adapter.
    pub fn new(
        client: &'a mut ReputationClient<C>,
        user: &'a mut dyn UserAgent,
        signatures: &'a HashMap<String, CodeSignature>,
    ) -> Self {
        ClientHook { client, user, signatures, last_outcome: None }
    }
}

impl<C: Connector> ExecutionHook for ClientHook<'_, C> {
    fn on_execute(&mut self, image: &SyntheticExecutable) -> HookVerdict {
        let signature = self.signatures.get(&image.id_sha1().to_hex());
        let outcome = self.client.handle_execution(image, signature, self.user);
        self.last_outcome = Some(outcome);
        if outcome.allowed {
            HookVerdict::Allow
        } else {
            HookVerdict::Deny
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::InProcessConnector;
    use softrep_core::clock::SimClock;
    use softrep_core::db::ReputationDb;
    use softrep_server::{ReputationServer, ServerConfig};

    /// A scripted user agent for tests.
    struct ScriptedUser {
        choice: UserChoice,
        rating: Option<RatingSubmission>,
        decisions: u64,
        rating_prompts: u64,
    }

    impl ScriptedUser {
        fn new(choice: UserChoice) -> Self {
            ScriptedUser { choice, rating: None, decisions: 0, rating_prompts: 0 }
        }

        fn with_rating(mut self, score: u8) -> Self {
            self.rating = Some(RatingSubmission {
                score,
                behaviours: vec!["popup_ads".into()],
                comment: None,
            });
            self
        }
    }

    impl UserAgent for ScriptedUser {
        fn decide(&mut self, _ctx: &PromptContext) -> UserChoice {
            self.decisions += 1;
            self.choice
        }

        fn rate(
            &mut self,
            _file: &str,
            _report: Option<&SoftwareInfo>,
        ) -> Option<RatingSubmission> {
            self.rating_prompts += 1;
            self.rating.clone()
        }
    }

    fn setup() -> (ReputationClient<InProcessConnector>, Arc<ReputationServer>, SimClock) {
        let clock = SimClock::new();
        let server = Arc::new(ReputationServer::new(
            ReputationDb::in_memory("client-test"),
            Arc::new(clock.clone()),
            ServerConfig {
                puzzle_difficulty: 2,
                flood_capacity: 100_000,
                flood_refill_per_hour: 100_000,
                ..ServerConfig::default()
            },
            42,
        ));
        let connector = InProcessConnector::new(Arc::clone(&server), "10.0.0.1");
        let client = ReputationClient::new(connector, Arc::new(clock.clone()));
        (client, server, clock)
    }

    fn exe(name: &str) -> SyntheticExecutable {
        SyntheticExecutable::new(name, "Acme", "1.0", name.as_bytes().to_vec())
    }

    #[test]
    fn register_and_login_full_flow() {
        let (mut client, server, _) = setup();
        client.register_and_login("alice", "pw", "alice@example.com").unwrap();
        assert_eq!(client.username(), Some("alice"));
        assert_eq!(server.db().user_count(), 1);
        // Wrong credentials surface as errors.
        assert!(client.login("alice", "wrong").is_err());
    }

    #[test]
    fn whitelisted_software_runs_without_traffic_or_prompts() {
        let (mut client, _server, _) = setup();
        let app = exe("app.exe");
        client.lists_mut().whitelist(&app.id_sha1().to_hex());
        let mut user = ScriptedUser::new(UserChoice::DenyAlways); // must never be asked

        let outcome = client.handle_execution(&app, None, &mut user);
        assert!(outcome.allowed);
        assert_eq!(outcome.source, DecisionSource::Whitelist);
        assert!(!outcome.asked_user);
        assert_eq!(user.decisions, 0);
        assert_eq!(client.stats().server_queries, 0, "invariant 8: no round-trip");
    }

    #[test]
    fn blacklisted_software_is_denied_silently() {
        let (mut client, _server, _) = setup();
        let app = exe("spy.exe");
        client.lists_mut().blacklist(&app.id_sha1().to_hex());
        let mut user = ScriptedUser::new(UserChoice::AllowAlways);
        let outcome = client.handle_execution(&app, None, &mut user);
        assert!(!outcome.allowed);
        assert_eq!(outcome.source, DecisionSource::Blacklist);
        assert_eq!(user.decisions, 0);
    }

    #[test]
    fn unknown_software_asks_the_user_and_registers_metadata() {
        let (mut client, server, _) = setup();
        let app = exe("newapp.exe");
        let mut user = ScriptedUser::new(UserChoice::AllowOnce);

        let outcome = client.handle_execution(&app, None, &mut user);
        assert!(outcome.allowed);
        assert_eq!(outcome.source, DecisionSource::User);
        assert!(outcome.asked_user);
        assert_eq!(user.decisions, 1);
        // The client reported the metadata so future voters have a target.
        let rec = server.db().software(&app.id_sha1().to_hex()).unwrap().unwrap();
        assert_eq!(rec.file_name, "newapp.exe");
        assert_eq!(rec.company.as_deref(), Some("Acme"));
    }

    #[test]
    fn allow_always_whitelists_and_deny_always_blacklists() {
        let (mut client, _server, _) = setup();
        let good = exe("good.exe");
        let bad = exe("bad.exe");

        let mut user = ScriptedUser::new(UserChoice::AllowAlways);
        client.handle_execution(&good, None, &mut user);
        let mut user = ScriptedUser::new(UserChoice::DenyAlways);
        client.handle_execution(&bad, None, &mut user);

        // Second executions hit the lists, not the dialog.
        let mut watcher = ScriptedUser::new(UserChoice::DenyAlways);
        assert!(client.handle_execution(&good, None, &mut watcher).allowed);
        assert!(!client.handle_execution(&bad, None, &mut watcher).allowed);
        assert_eq!(watcher.decisions, 0);
    }

    #[test]
    fn trusted_signature_auto_allows_and_whitelists() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use softrep_crypto::ots::WinternitzKeypair;

        let (mut client, _server, _) = setup();
        let app = exe("photoshop.exe");
        let mut rng = StdRng::seed_from_u64(77);
        let keypair = WinternitzKeypair::generate(&mut rng);
        let signature = CodeSignature {
            vendor: "Adobe".into(),
            public_key: keypair.public_key().clone(),
            signature: keypair.sign(&app.to_bytes()),
        };
        client.registry_mut().publish_key("Adobe", keypair.public_key());
        client.registry_mut().trust_vendor("Adobe");

        let mut user = ScriptedUser::new(UserChoice::DenyAlways);
        let outcome = client.handle_execution(&app, Some(&signature), &mut user);
        assert!(outcome.allowed);
        assert_eq!(outcome.source, DecisionSource::TrustedSignature);
        assert_eq!(user.decisions, 0);
        // Whitelisted for next time — no signature check needed.
        let outcome = client.handle_execution(&app, None, &mut user);
        assert_eq!(outcome.source, DecisionSource::Whitelist);
    }

    #[test]
    fn policy_decides_without_interaction() {
        let (mut client, server, clock) = setup();
        client.register_and_login("alice", "pw", "a@x.com").unwrap();
        client
            .set_policy_text(
                "deny if behaviour(\"popup_ads\")\nallow if rating >= 6\nask otherwise",
            )
            .unwrap();

        // Seed a rating: alice votes 8 on app1 via a raw server call.
        let app1 = exe("app1.exe");
        let id1 = app1.id_sha1().to_hex();
        server.db().register_software(&id1, "app1.exe", 1, None, None, clock.now()).unwrap();
        server.db().submit_vote("alice", &id1, 8, vec![], clock.now()).unwrap();
        server.db().force_aggregation(clock.now()).unwrap();

        let mut user = ScriptedUser::new(UserChoice::DenyAlways);
        let outcome = client.handle_execution(&app1, None, &mut user);
        assert!(outcome.allowed);
        assert_eq!(outcome.source, DecisionSource::Policy);
        assert_eq!(user.decisions, 0);

        // An unrated program falls through to the dialog.
        let app2 = exe("app2.exe");
        let mut user = ScriptedUser::new(UserChoice::DenyOnce);
        let outcome = client.handle_execution(&app2, None, &mut user);
        assert_eq!(outcome.source, DecisionSource::User);
        assert_eq!(user.decisions, 1);
    }

    #[test]
    fn rating_prompt_fires_after_threshold_and_submits_vote() {
        let (mut client, server, _) = setup();
        client.register_and_login("alice", "pw", "a@x.com").unwrap();
        client.set_prompt_policy(RatingPromptPolicy::new(3, 10));
        let app = exe("daily.exe");
        client.lists_mut().whitelist(&app.id_sha1().to_hex());

        let mut user = ScriptedUser::new(UserChoice::AllowOnce).with_rating(4);
        for _ in 0..3 {
            let outcome = client.handle_execution(&app, None, &mut user);
            assert!(!outcome.rating_prompted);
        }
        let outcome = client.handle_execution(&app, None, &mut user);
        assert!(outcome.rating_prompted);
        assert!(outcome.rating_submitted);
        assert_eq!(user.rating_prompts, 1);
        assert_eq!(server.db().vote_count(), 1);
        let vote = server.db().vote_of("alice", &app.id_sha1().to_hex()).unwrap().unwrap();
        assert_eq!(vote.score, 4);
        assert_eq!(vote.behaviours, vec!["popup_ads".to_string()]);

        // Rated software is never prompted again.
        for _ in 0..10 {
            let outcome = client.handle_execution(&app, None, &mut user);
            assert!(!outcome.rating_prompted);
        }
    }

    #[test]
    fn rating_prompt_without_login_cannot_submit() {
        let (mut client, server, _) = setup();
        client.set_prompt_policy(RatingPromptPolicy::new(1, 10));
        let app = exe("x.exe");
        client.lists_mut().whitelist(&app.id_sha1().to_hex());
        let mut user = ScriptedUser::new(UserChoice::AllowOnce).with_rating(7);
        client.handle_execution(&app, None, &mut user);
        let outcome = client.handle_execution(&app, None, &mut user);
        assert!(outcome.rating_prompted);
        assert!(!outcome.rating_submitted, "no session, no vote");
        assert_eq!(server.db().vote_count(), 0);
    }

    #[test]
    fn report_cache_avoids_repeated_queries() {
        let (mut client, _server, clock) = setup();
        let app = exe("cachetest.exe");
        let mut user = ScriptedUser::new(UserChoice::AllowOnce);
        client.handle_execution(&app, None, &mut user);
        let queries_after_first = client.stats().server_queries;
        client.handle_execution(&app, None, &mut user);
        assert_eq!(client.stats().server_queries, queries_after_first);
        assert!(client.stats().cache_hits >= 1);
        // After TTL the query is refreshed.
        clock.advance_secs(3_601);
        client.handle_execution(&app, None, &mut user);
        assert!(client.stats().server_queries > queries_after_first);
    }

    #[test]
    fn subscribed_feed_drives_policy_decisions() {
        let (mut client, server, clock) = setup();
        client.register_and_login("alice", "pw", "a@x.com").unwrap();

        // An expert publishes a feed verdict on an otherwise unrated app.
        let app = exe("niche-tool.exe");
        let id = app.id_sha1().to_hex();
        server.db().register_software(&id, "niche-tool.exe", 1, None, None, clock.now()).unwrap();
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let token = server
            .db()
            .register_user("sec_team", "pw", "sec@corp.example", clock.now(), &mut rng)
            .unwrap();
        server.db().activate_user("sec_team", &token).unwrap();
        server.db().create_feed("sec-team", "sec_team", clock.now()).unwrap();
        server
            .db()
            .publish_feed_entry(
                "sec_team",
                "sec-team",
                &id,
                2.0,
                vec!["tracking".into()],
                clock.now(),
            )
            .unwrap();

        // Without the subscription the policy cannot see feed data.
        client.set_policy_text("deny if feed_rating <= 4\nask otherwise").unwrap();
        let mut user = ScriptedUser::new(UserChoice::AllowOnce);
        let outcome = client.handle_execution(&app, None, &mut user);
        assert_eq!(outcome.source, DecisionSource::User, "no subscription, no feed data");

        // With the subscription the policy denies automatically.
        client.subscribe_feed("sec-team");
        assert_eq!(client.subscribed_feeds(), &["sec-team".to_string()]);
        let app2 = exe("niche-tool-2.exe");
        let id2 = app2.id_sha1().to_hex();
        server
            .db()
            .register_software(&id2, "niche-tool-2.exe", 1, None, None, clock.now())
            .unwrap();
        server
            .db()
            .publish_feed_entry("sec_team", "sec-team", &id2, 2.0, vec![], clock.now())
            .unwrap();
        let outcome = client.handle_execution(&app2, None, &mut user);
        assert!(!outcome.allowed);
        assert_eq!(outcome.source, DecisionSource::Policy);

        client.unsubscribe_feed("sec-team");
        assert!(client.subscribed_feeds().is_empty());
    }

    #[test]
    fn feed_behaviours_merge_into_policy_context() {
        let (mut client, server, clock) = setup();
        client.register_and_login("alice", "pw", "a@x.com").unwrap();
        client.create_feed("alice-feed").unwrap();

        let app = exe("merged.exe");
        let id = app.id_sha1().to_hex();
        server.db().register_software(&id, "merged.exe", 1, None, None, clock.now()).unwrap();
        client.publish_feed_entry("alice-feed", &id, 3.0, vec!["keylogger".into()]).unwrap();
        client.subscribe_feed("alice-feed");
        client.set_policy_text("deny if behaviour(\"keylogger\")\nask otherwise").unwrap();
        let mut user = ScriptedUser::new(UserChoice::AllowOnce);
        let outcome = client.handle_execution(&app, None, &mut user);
        assert!(!outcome.allowed, "feed-reported behaviour must reach the policy");
    }

    #[test]
    fn verified_evidence_reaches_the_policy() {
        let (mut client, server, clock) = setup();
        let app = exe("evidence.exe");
        let id = app.id_sha1().to_hex();
        server.db().register_software(&id, "evidence.exe", 1, None, None, clock.now()).unwrap();
        server
            .db()
            .record_evidence(&id, vec!["data_exfiltration".into()], "sandbox-v1", clock.now())
            .unwrap();

        client.set_policy_text("deny if verified(\"data_exfiltration\")\nask otherwise").unwrap();
        let mut user = ScriptedUser::new(UserChoice::AllowOnce);
        let outcome = client.handle_execution(&app, None, &mut user);
        assert!(!outcome.allowed);
        assert_eq!(outcome.source, DecisionSource::Policy);

        // `behaviour(...)` also matches verified evidence (strict upgrade).
        let mut client2 = {
            let connector = InProcessConnector::new(Arc::clone(&server), "10.0.0.2");
            ReputationClient::new(connector, Arc::new(clock.clone()))
        };
        client2.set_policy_text("deny if behaviour(\"data_exfiltration\")\nask otherwise").unwrap();
        let outcome = client2.handle_execution(&app, None, &mut user);
        assert!(!outcome.allowed);
    }

    #[test]
    fn client_hook_drives_sim_os() {
        use crate::os::{LaunchOutcome, SimOs};

        let (mut client, _server, _) = setup();
        let mut os = SimOs::new();
        let system = exe("kernel32.dll");
        os.mark_essential(&system.id_sha1().to_hex());

        // A deny-everything user crashes the OS by blocking an essential
        // component (§4.2's hazard)…
        let signatures = HashMap::new();
        let mut denier = ScriptedUser::new(UserChoice::DenyOnce);
        let mut hook = ClientHook::new(&mut client, &mut denier, &signatures);
        assert_eq!(os.launch(&system, &mut hook), LaunchOutcome::Crashed);

        // …which pre-whitelisting prevents.
        os.reboot();
        client.lists_mut().whitelist(&system.id_sha1().to_hex());
        let mut denier = ScriptedUser::new(UserChoice::DenyOnce);
        let mut hook = ClientHook::new(&mut client, &mut denier, &signatures);
        assert_eq!(os.launch(&system, &mut hook), LaunchOutcome::Ran);
        assert_eq!(hook.last_outcome.unwrap().source, DecisionSource::Whitelist);
    }
}
