//! The request dispatcher: protocol messages → reputation database.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use softrep_core::clock::{Clock, Timestamp};
use softrep_core::db::{ReputationDb, SoftwareReport};
use softrep_core::error::CoreError;
use softrep_core::model::MAX_BEHAVIOURS;
use softrep_crypto::bignum::BigUint;
use softrep_crypto::rsa::{RsaKeypair, RsaSignature};
use softrep_crypto::sha256::Sha256;
use softrep_proto::message::{CommentInfo, SoftwareInfo};
use softrep_proto::{Request, Response};

use crate::flood::FloodGuard;
use crate::pseudonym_key::PseudonymKey;
use crate::puzzle_gate::{PuzzleGate, PuzzleRejection};
use crate::repl::ReplServerState;
use crate::session::SessionManager;
use crate::stats::ServerStats;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Leading zero bits required of registration puzzles. 0 disables the
    /// puzzle requirement entirely (the ablation arm of experiment D3).
    pub puzzle_difficulty: u8,
    /// Session lifetime.
    pub session_ttl_secs: u64,
    /// Flood-guard burst capacity per identity.
    pub flood_capacity: u32,
    /// Flood-guard sustained requests/hour per identity.
    pub flood_refill_per_hour: u32,
    /// Upper bound on identities the flood guard tracks at once; beyond
    /// it, stale (fully refilled) buckets are evicted so identity churn
    /// cannot exhaust server memory.
    pub flood_max_identities: usize,
    /// Maximum comments returned in a software report.
    pub max_comments_in_report: usize,
    /// Shared secret authenticating runtime analyzers (§5 evidence
    /// submission). `None` disables the evidence endpoint.
    pub analyzer_token: Option<String>,
    /// Modulus size for the §5 pseudonym-credential RSA key. 0 (the
    /// default) disables the pseudonym endpoints; the deployment binary
    /// enables 1024. No start generates the key: the first pseudonym
    /// request loads it from the store directory, or generates one of this
    /// size and writes it there (see [`crate::pseudonym_key`]). A key
    /// already on disk is used at whatever size it was made.
    pub pseudonym_key_bits: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            puzzle_difficulty: 12,
            session_ttl_secs: 24 * 3_600,
            flood_capacity: 60,
            flood_refill_per_hour: 120,
            flood_max_identities: crate::flood::DEFAULT_MAX_TRACKED,
            max_comments_in_report: 10,
            analyzer_token: None,
            pseudonym_key_bits: 0,
        }
    }
}

/// The reputation server: wraps the database with sessions, puzzles and
/// flood control, and speaks the wire protocol's typed messages.
pub struct ReputationServer {
    db: ReputationDb,
    clock: Arc<dyn Clock>,
    sessions: SessionManager,
    puzzles: PuzzleGate,
    flood: FloodGuard,
    config: ServerConfig,
    rng: Mutex<StdRng>,
    /// `None` when pseudonyms are disabled.
    pseudonym_key: Option<PseudonymKey>,
    stats: Arc<ServerStats>,
    repl: ReplServerState,
}

impl ReputationServer {
    /// Assemble a server. `rng_seed` makes simulations reproducible; pass
    /// entropy-derived seeds in production.
    pub fn new(
        db: ReputationDb,
        clock: Arc<dyn Clock>,
        config: ServerConfig,
        rng_seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let pseudonym_key = (config.pseudonym_key_bits > 0)
            .then(|| PseudonymKey::new(config.pseudonym_key_bits, rng.next_u64()));
        ReputationServer {
            sessions: SessionManager::new(config.session_ttl_secs),
            puzzles: PuzzleGate::new(config.puzzle_difficulty),
            flood: FloodGuard::with_limits(
                config.flood_capacity,
                config.flood_refill_per_hour,
                config.flood_max_identities,
            ),
            rng: Mutex::new(rng),
            db,
            clock,
            config,
            pseudonym_key,
            stats: Arc::new(ServerStats::new()),
            repl: ReplServerState::default(),
        }
    }

    /// The replication state: role marker, snapshot cache, lag metrics.
    pub fn repl_state(&self) -> &ReplServerState {
        &self.repl
    }

    /// The shared counter sink. The TCP front end records transport events
    /// here; aggregation work is counted by the db's `aggregation_stats()`.
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The wrapped database (used by simulations for direct inspection).
    pub fn db(&self) -> &ReputationDb {
        &self.db
    }

    /// The server clock.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The flood guard (for experiment metrics).
    pub fn flood_guard(&self) -> &FloodGuard {
        &self.flood
    }

    /// Run periodic maintenance: the 24 h aggregation batch (incremental —
    /// only titles dirtied since the previous batch), and pruning of
    /// expired sessions and puzzle challenges. Returns the number of
    /// ratings recomputed.
    pub fn tick(&self) -> usize {
        let now = self.clock.now();
        self.sessions.prune(now);
        self.puzzles.prune(now);
        self.db.run_aggregation_if_due(now).unwrap_or(0)
    }

    /// Operator command: run the paper-faithful full batch immediately,
    /// regardless of schedule or dirty set. Returns the number of ratings
    /// recomputed.
    pub fn run_full_aggregation(&self) -> usize {
        self.db.force_aggregation_full(self.clock.now()).unwrap_or(0)
    }

    /// One coherent Prometheus-style snapshot of the whole process: the
    /// obs registry (latency histograms, WAL/fsync/aggregation series)
    /// plus the pre-existing transport, flood, storage, and aggregation
    /// counters rendered as external series.
    pub fn metrics_text(&self) -> String {
        use softrep_obs::metrics::{render_external_counter, render_external_gauge};

        let mut out = softrep_obs::registry().render();

        let transport = self.stats.snapshot();
        render_external_counter(
            &mut out,
            "softrep_server_connections_accepted_total",
            transport.accepted,
        );
        render_external_gauge(&mut out, "softrep_server_connections_active", transport.active);
        render_external_counter(
            &mut out,
            "softrep_server_rejected_overload_total",
            transport.rejected_overload,
        );
        render_external_counter(&mut out, "softrep_server_timed_out_total", transport.timed_out);
        render_external_counter(
            &mut out,
            "softrep_server_requests_served_total",
            transport.requests_served,
        );
        render_external_counter(
            &mut out,
            "softrep_server_connections_closed_total",
            transport.closed,
        );

        let flood = self.flood.stats();
        render_external_gauge(&mut out, "softrep_flood_tracked_identities", flood.tracked as u64);
        render_external_counter(&mut out, "softrep_flood_rejected_total", flood.rejected);
        render_external_counter(&mut out, "softrep_flood_evicted_total", flood.evicted);

        let store = self.db.store_stats();
        render_external_gauge(&mut out, "softrep_store_trees", store.trees as u64);
        render_external_gauge(&mut out, "softrep_store_keys", store.keys as u64);
        render_external_counter(
            &mut out,
            "softrep_store_batches_applied_total",
            store.batches_applied,
        );
        render_external_gauge(
            &mut out,
            "softrep_store_ops_since_compaction",
            store.ops_since_compaction,
        );
        render_external_gauge(&mut out, "softrep_store_wal_bytes", store.wal_bytes);
        render_external_counter(&mut out, "softrep_store_group_commits_total", store.group_commits);
        render_external_counter(&mut out, "softrep_store_fsyncs_saved_total", store.fsyncs_saved);
        render_external_gauge(&mut out, "softrep_store_max_group_depth", store.max_group_depth);
        render_external_counter(&mut out, "softrep_store_wal_rotations_total", store.wal_rotations);

        let agg = self.db.aggregation_stats();
        render_external_counter(
            &mut out,
            "softrep_agg_incremental_runs_total",
            agg.incremental_runs,
        );
        render_external_counter(&mut out, "softrep_agg_full_runs_total", agg.full_runs);
        render_external_counter(
            &mut out,
            "softrep_agg_titles_incremental_total",
            agg.titles_recomputed_incremental,
        );
        render_external_counter(
            &mut out,
            "softrep_agg_titles_full_total",
            agg.titles_recomputed_full,
        );
        render_external_counter(&mut out, "softrep_agg_dirty_marks_total", agg.dirty_marks);
        render_external_counter(
            &mut out,
            "softrep_agg_report_cache_hits_total",
            agg.report_cache_hits,
        );
        render_external_counter(
            &mut out,
            "softrep_agg_report_cache_misses_total",
            agg.report_cache_misses,
        );
        render_external_counter(
            &mut out,
            "softrep_agg_vendor_cache_hits_total",
            agg.vendor_cache_hits,
        );
        render_external_counter(
            &mut out,
            "softrep_agg_vendor_cache_misses_total",
            agg.vendor_cache_misses,
        );
        render_external_gauge(&mut out, "softrep_agg_dirty_titles", self.db.dirty_count() as u64);

        // Seconds since the last aggregation pass. A deployment that has
        // never aggregated reports its full uptime-equivalent (now.0) so
        // the staleness alarm still has a monotone signal to watch.
        let now = self.clock.now();
        let lag = match self.db.last_aggregation() {
            Ok(Some(t)) => now.since(t),
            Ok(None) | Err(_) => now.0,
        };
        render_external_gauge(&mut out, "softrep_agg_lag_seconds", lag);

        let slow = softrep_obs::slow_ops();
        render_external_gauge(&mut out, "softrep_slow_ops_retained", slow.recent().len() as u64);
        render_external_counter(&mut out, "softrep_slow_ops_dropped_total", slow.dropped());
        render_external_gauge(&mut out, "softrep_slow_op_threshold_us", slow.threshold_us());

        // Replication lag (DESIGN.md §15). Rendered on every role: a
        // primary reports zeros, so dashboards and the CI smoke test can
        // depend on the series existing unconditionally.
        let repl = self.repl.metrics();
        render_external_gauge(&mut out, "softrep_repl_lag_entries", repl.lag_entries);
        render_external_gauge(&mut out, "softrep_repl_lag_bytes", repl.lag_bytes);
        render_external_gauge(&mut out, "softrep_repl_applied_seq", repl.applied_seq);
        render_external_counter(&mut out, "softrep_repl_reconnects_total", repl.reconnects);

        out
    }

    /// Handle one request from `source` (a transport-level identity used
    /// only for flood control — never persisted, per §2.2).
    pub fn handle(&self, request: &Request, source: &str) -> Response {
        let now = self.clock.now();
        // Replication polling is machine-to-machine at tailing cadence;
        // the human-scale flood budget would starve it within a minute.
        let is_repl =
            matches!(request, Request::ReplSubscribe { .. } | Request::ReplSnapshot { .. });
        if !is_repl && !self.flood.allow(source, now) {
            return Response::error("throttled", "too many requests; slow down");
        }
        // A read replica answers the read-only subset from its local
        // store; everything else is redirected to the primary with its
        // address, so clients can follow without extra configuration.
        if let Some(primary) = self.repl.replica_of() {
            if !request.is_replica_servable() {
                return Response::NotPrimary { primary: primary.to_string() };
            }
        }
        match request {
            Request::GetPuzzle => {
                let challenge = self.puzzles.issue(&mut *self.rng.lock(), now);
                Response::Puzzle { challenge }
            }
            Request::Register { username, password, email, puzzle_challenge, puzzle_solution } => {
                if self.config.puzzle_difficulty > 0 {
                    match self.puzzles.redeem(puzzle_challenge, *puzzle_solution) {
                        Ok(()) => {}
                        Err(PuzzleRejection::UnknownChallenge) => {
                            return Response::error(
                                "bad-puzzle",
                                "challenge not issued or already used",
                            )
                        }
                        Err(PuzzleRejection::WrongSolution) => {
                            return Response::error("bad-puzzle", "puzzle solution does not verify")
                        }
                    }
                }
                let mut rng = self.rng.lock();
                match self.db.register_user(username, password, email, now, &mut *rng) {
                    Ok(activation_token) => Response::Registered { activation_token },
                    Err(e) => error_response(e),
                }
            }
            Request::Activate { username, token } => match self.db.activate_user(username, token) {
                Ok(()) => Response::Ok,
                Err(e) => error_response(e),
            },
            Request::Login { username, password } => match self.db.login(username, password, now) {
                Ok(()) => {
                    let token = self.sessions.create(username, now, &mut *self.rng.lock());
                    Response::Session { token }
                }
                Err(e) => error_response(e),
            },
            Request::QuerySoftware { software_id } | Request::QueryDetails { software_id } => {
                match self.db.software_report(software_id) {
                    Ok(Some(report)) => Response::Software(self.render_report(report)),
                    Ok(None) => Response::UnknownSoftware { software_id: software_id.clone() },
                    Err(e) => error_response(e),
                }
            }
            Request::RegisterSoftware { software_id, file_name, file_size, company, version } => {
                match self.db.register_software(
                    software_id,
                    file_name,
                    *file_size,
                    company.clone(),
                    version.clone(),
                    now,
                ) {
                    Ok(_) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::SubmitVote { session, software_id, score, behaviours } => {
                let Some(username) = self.sessions.resolve(session, now) else {
                    return Response::error("bad-session", "session invalid or expired");
                };
                match self.db.submit_vote(&username, software_id, *score, behaviours.clone(), now) {
                    Ok(()) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::SubmitComment { session, software_id, text } => {
                let Some(username) = self.sessions.resolve(session, now) else {
                    return Response::error("bad-session", "session invalid or expired");
                };
                match self.db.submit_comment(&username, software_id, text, now) {
                    Ok(_) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::RateComment { session, comment_id, positive } => {
                let Some(username) = self.sessions.resolve(session, now) else {
                    return Response::error("bad-session", "session invalid or expired");
                };
                match self.db.remark_comment(&username, *comment_id, *positive, now) {
                    Ok(()) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::QueryVendor { vendor } => match self.db.vendor_report(vendor) {
                Ok(report) => Response::Vendor {
                    vendor: report.vendor,
                    rating: report.rating,
                    software_count: report.software_count,
                },
                Err(e) => error_response(e),
            },
            Request::SubmitEvidence { analyzer_token, software_id, behaviours, analyzer } => {
                let authorised = self.config.analyzer_token.as_deref().is_some_and(|expected| {
                    softrep_crypto::hmac::constant_time_eq(
                        expected.as_bytes(),
                        analyzer_token.as_bytes(),
                    )
                });
                if !authorised {
                    return Response::error("bad-analyzer-token", "evidence submission rejected");
                }
                match self.db.record_evidence(software_id, behaviours.clone(), analyzer, now) {
                    Ok(()) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::CreateFeed { session, name } => {
                let Some(username) = self.sessions.resolve(session, now) else {
                    return Response::error("bad-session", "session invalid or expired");
                };
                match self.db.create_feed(name, &username, now) {
                    Ok(()) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::PublishFeedEntry { session, feed, software_id, rating, behaviours } => {
                let Some(username) = self.sessions.resolve(session, now) else {
                    return Response::error("bad-session", "session invalid or expired");
                };
                match self.db.publish_feed_entry(
                    &username,
                    feed,
                    software_id,
                    *rating,
                    behaviours.clone(),
                    now,
                ) {
                    Ok(()) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::QueryFeedEntry { feed, software_id } => {
                match self.db.feed_entry(feed, software_id) {
                    Ok(Some(entry)) => Response::FeedEntry {
                        feed: entry.feed,
                        software_id: entry.software_id,
                        rating: entry.rating,
                        behaviours: entry.behaviours,
                    },
                    Ok(None) => Response::error("unknown-feed-entry", "no entry for this software"),
                    Err(e) => error_response(e),
                }
            }
            Request::GetPseudonymKey => match self.pseudonym_key() {
                Ok(key) => Response::PseudonymKey {
                    n: key.public_key().n.to_hex(),
                    e: key.public_key().e.to_hex(),
                },
                Err((code, message)) => Response::error(code, message),
            },
            Request::BlindSignPseudonym { session, blinded } => {
                let key = match self.pseudonym_key() {
                    Ok(key) => key,
                    Err((code, message)) => return Response::error(code, message),
                };
                let Some(username) = self.sessions.resolve(session, now) else {
                    return Response::error("bad-session", "session invalid or expired");
                };
                let Some(blinded) = BigUint::from_hex(blinded) else {
                    return Response::error("bad-request", "blinded element is not hex");
                };
                // One credential per member, marked *before* signing so a
                // crash cannot double-issue.
                if let Err(e) = self.db.mark_pseudonym_credential_issued(&username) {
                    return error_response(e);
                }
                Response::BlindSignature { value: key.sign_raw(&blinded).to_hex() }
            }
            Request::RegisterPseudonym { username, password, token, signature } => {
                let key = match self.pseudonym_key() {
                    Ok(key) => key,
                    Err((code, message)) => return Response::error(code, message),
                };
                let (Some(token_bytes), Some(sig_value)) =
                    (softrep_crypto::hex::decode(token), BigUint::from_hex(signature))
                else {
                    return Response::error("bad-request", "token/signature must be hex");
                };
                if !key.public_key().verify(&token_bytes, &RsaSignature(sig_value)) {
                    return Response::error(
                        "bad-credential",
                        "pseudonym credential does not verify",
                    );
                }
                let token_digest = softrep_crypto::hex::encode(&Sha256::digest(&token_bytes));
                let mut rng = self.rng.lock();
                match self.db.register_pseudonym(username, password, &token_digest, now, &mut *rng)
                {
                    Ok(()) => Response::Ok,
                    Err(e) => error_response(e),
                }
            }
            Request::ReplSubscribe { from_seq, max_entries, max_bytes } => {
                crate::repl::serve_subscribe(self.db.store(), *from_seq, *max_entries, *max_bytes)
            }
            Request::ReplSnapshot { seq, offset } => {
                crate::repl::serve_snapshot(&self.repl, self.db.store(), *seq, *offset)
            }
        }
    }

    /// The pseudonym signing key, loaded or made on first use, or the error
    /// code and message that refuse the request.
    fn pseudonym_key(&self) -> Result<&RsaKeypair, (&'static str, String)> {
        let Some(key) = &self.pseudonym_key else {
            return Err(("pseudonyms-disabled", "no pseudonym key configured".into()));
        };
        key.get(self.db.store()).map_err(|reason| ("pseudonym-key-unavailable", reason))
    }

    fn render_report(&self, report: SoftwareReport) -> SoftwareInfo {
        let (rating, vote_count, behaviours) = match &report.rating {
            Some(r) => (
                Some(r.rating),
                r.vote_count,
                // The tally is sorted most reported first.
                r.behaviours.iter().take(MAX_BEHAVIOURS).map(|(b, _)| b.clone()).collect(),
            ),
            None => (None, 0, Vec::new()),
        };
        let verified_behaviours = report
            .evidence
            .map(|e| e.behaviours.into_iter().take(MAX_BEHAVIOURS).collect())
            .unwrap_or_default();
        SoftwareInfo {
            software_id: report.software.software_id,
            file_name: (!report.software.file_name.is_empty())
                .then(|| report.software.file_name.clone()),
            company: report.software.company,
            version: report.software.version,
            rating,
            vote_count,
            behaviours,
            verified_behaviours,
            comments: report
                .comments
                .into_iter()
                .take(self.config.max_comments_in_report)
                .map(|pc| CommentInfo {
                    id: pc.comment.id,
                    author: pc.comment.author,
                    text: pc.comment.text,
                    remark_score: pc.remark_score,
                })
                .collect(),
        }
    }
}

fn error_response(e: CoreError) -> Response {
    Response::error(e.code(), e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use softrep_core::clock::SimClock;
    use softrep_crypto::puzzle::Challenge;

    fn server_with(config: ServerConfig) -> (ReputationServer, SimClock) {
        let clock = SimClock::new();
        let db = ReputationDb::in_memory("test-pepper");
        let server = ReputationServer::new(db, Arc::new(clock.clone()), config, 1234);
        (server, clock)
    }

    fn server() -> (ReputationServer, SimClock) {
        server_with(ServerConfig { puzzle_difficulty: 4, ..ServerConfig::default() })
    }

    fn sw_id(tag: u8) -> String {
        format!("{tag:02x}").repeat(20)
    }

    /// Full registration: puzzle → register → activate → login → session.
    fn join(server: &ReputationServer, name: &str) -> String {
        let Response::Puzzle { challenge } = server.handle(&Request::GetPuzzle, name) else {
            panic!("expected puzzle")
        };
        let (solution, _) = Challenge::decode(&challenge).unwrap().solve();
        let resp = server.handle(
            &Request::Register {
                username: name.into(),
                password: "pw".into(),
                email: format!("{name}@example.com"),
                puzzle_challenge: challenge,
                puzzle_solution: solution.nonce,
            },
            name,
        );
        let Response::Registered { activation_token } = resp else {
            panic!("expected registered, got {resp:?}")
        };
        assert_eq!(
            server.handle(
                &Request::Activate { username: name.into(), token: activation_token },
                name
            ),
            Response::Ok
        );
        let Response::Session { token } =
            server.handle(&Request::Login { username: name.into(), password: "pw".into() }, name)
        else {
            panic!("expected session")
        };
        token
    }

    #[test]
    fn full_happy_path_register_vote_query() {
        let (server, _clock) = server();
        let session = join(&server, "alice");

        assert_eq!(
            server.handle(
                &Request::RegisterSoftware {
                    software_id: sw_id(1),
                    file_name: "weatherbar.exe".into(),
                    file_size: 1000,
                    company: Some("Acme".into()),
                    version: Some("1.0".into()),
                },
                "alice"
            ),
            Response::Ok
        );
        assert_eq!(
            server.handle(
                &Request::SubmitVote {
                    session: session.clone(),
                    software_id: sw_id(1),
                    score: 3,
                    behaviours: vec!["popup_ads".into()],
                },
                "alice"
            ),
            Response::Ok
        );
        server.db().force_aggregation(server.now()).unwrap();

        let resp = server.handle(&Request::QuerySoftware { software_id: sw_id(1) }, "bob");
        let Response::Software(info) = resp else { panic!("{resp:?}") };
        assert_eq!(info.rating, Some(3.0));
        assert_eq!(info.vote_count, 1);
        assert_eq!(info.behaviours, vec!["popup_ads".to_string()]);
        assert_eq!(info.company.as_deref(), Some("Acme"));
    }

    #[test]
    fn unknown_software_reported_as_such() {
        let (server, _) = server();
        let resp = server.handle(&Request::QuerySoftware { software_id: sw_id(9) }, "x");
        assert_eq!(resp, Response::UnknownSoftware { software_id: sw_id(9) });
    }

    #[test]
    fn registration_without_valid_puzzle_fails() {
        let (server, _) = server();
        let resp = server.handle(
            &Request::Register {
                username: "eve".into(),
                password: "pw".into(),
                email: "eve@example.com".into(),
                puzzle_challenge: "4:00000000000000000000000000000000".into(),
                puzzle_solution: 0,
            },
            "eve",
        );
        let Response::Error { code, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(code, "bad-puzzle");
    }

    #[test]
    fn puzzle_difficulty_zero_disables_gate() {
        let (server, _) =
            server_with(ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() });
        let resp = server.handle(
            &Request::Register {
                username: "easy".into(),
                password: "pw".into(),
                email: "easy@example.com".into(),
                puzzle_challenge: String::new(),
                puzzle_solution: 0,
            },
            "easy",
        );
        assert!(matches!(resp, Response::Registered { .. }));
    }

    #[test]
    fn duplicate_email_maps_to_protocol_error() {
        let (server, _) = server();
        join(&server, "alice");
        let Response::Puzzle { challenge } = server.handle(&Request::GetPuzzle, "eve") else {
            panic!()
        };
        let (solution, _) = Challenge::decode(&challenge).unwrap().solve();
        let resp = server.handle(
            &Request::Register {
                username: "eve".into(),
                password: "pw".into(),
                email: "ALICE@example.com".into(), // same address, different case
                puzzle_challenge: challenge,
                puzzle_solution: solution.nonce,
            },
            "eve",
        );
        let Response::Error { code, .. } = resp else { panic!("{resp:?}") };
        assert_eq!(code, "duplicate-email");
    }

    #[test]
    fn votes_require_a_valid_session() {
        let (server, clock) = server();
        let session = join(&server, "alice");
        server.handle(
            &Request::RegisterSoftware {
                software_id: sw_id(1),
                file_name: "a.exe".into(),
                file_size: 1,
                company: None,
                version: None,
            },
            "alice",
        );

        let bogus = server.handle(
            &Request::SubmitVote {
                session: "not-a-session".into(),
                software_id: sw_id(1),
                score: 5,
                behaviours: vec![],
            },
            "alice",
        );
        assert!(matches!(bogus, Response::Error { ref code, .. } if code == "bad-session"));

        // Sessions expire with the clock.
        clock.advance_secs(ServerConfig::default().session_ttl_secs + 1);
        let expired = server.handle(
            &Request::SubmitVote { session, software_id: sw_id(1), score: 5, behaviours: vec![] },
            "alice",
        );
        assert!(matches!(expired, Response::Error { ref code, .. } if code == "bad-session"));
    }

    #[test]
    fn flood_guard_throttles_noisy_sources() {
        let (server, _) = server_with(ServerConfig {
            flood_capacity: 3,
            flood_refill_per_hour: 1,
            puzzle_difficulty: 0,
            ..ServerConfig::default()
        });
        for _ in 0..3 {
            let resp = server.handle(&Request::QuerySoftware { software_id: sw_id(1) }, "10.0.0.1");
            assert!(!matches!(resp, Response::Error { ref code, .. } if code == "throttled"));
        }
        let resp = server.handle(&Request::QuerySoftware { software_id: sw_id(1) }, "10.0.0.1");
        assert!(matches!(resp, Response::Error { ref code, .. } if code == "throttled"));
        // Other sources are unaffected.
        let resp = server.handle(&Request::QuerySoftware { software_id: sw_id(1) }, "10.0.0.2");
        assert!(!matches!(resp, Response::Error { ref code, .. } if code == "throttled"));
    }

    #[test]
    fn tick_runs_aggregation_on_schedule() {
        let (server, clock) = server();
        let session = join(&server, "alice");
        server.handle(
            &Request::RegisterSoftware {
                software_id: sw_id(1),
                file_name: "a.exe".into(),
                file_size: 1,
                company: None,
                version: None,
            },
            "alice",
        );
        server.handle(
            &Request::SubmitVote { session, software_id: sw_id(1), score: 8, behaviours: vec![] },
            "alice",
        );
        assert_eq!(server.tick(), 1, "first tick aggregates the new vote");
        assert_eq!(server.tick(), 0, "second tick is before the next 24h boundary");
        clock.advance_days(1);
        assert_eq!(server.tick(), 0, "due, but nothing dirty: incremental batch is a no-op");
        server.handle(
            &Request::SubmitVote {
                session: join(&server, "bob"),
                software_id: sw_id(1),
                score: 4,
                behaviours: vec![],
            },
            "bob",
        );
        clock.advance_days(1);
        assert_eq!(server.tick(), 1, "fresh vote dirtied the title for the next batch");
        let agg = server.db().aggregation_stats();
        assert!(agg.incremental_runs >= 3, "every due tick counts as a run");
        assert_eq!(agg.titles_recomputed_incremental, 2);
        // The operator's full batch recomputes everything and is counted
        // separately.
        assert_eq!(server.run_full_aggregation(), 1);
        assert_eq!(server.db().aggregation_stats().full_runs, 1);
    }

    /// One identity at the deployed flood limits (60 burst, 120/hour) asks
    /// for puzzles as fast as the guard allows and redeems none. With
    /// daily ticks, what stays outstanding after a tick must not grow from
    /// day to day: at most one day of that identity's flood budget.
    #[test]
    fn unredeemed_puzzles_do_not_accumulate_across_daily_ticks() {
        let (server, clock) = server_with(ServerConfig::default());
        let day_budget = 60 + 120 * 24;
        for day in 1..=4 {
            for _ in 0..120 * 24 {
                clock.advance_secs(30);
                while matches!(
                    server.handle(&Request::GetPuzzle, "10.0.0.9"),
                    Response::Puzzle { .. }
                ) {}
            }
            server.tick();
            let outstanding = server.puzzles.outstanding_count();
            assert!(outstanding <= day_budget, "day {day}: {outstanding} challenges outstanding");
        }
    }

    #[test]
    fn comments_flow_through_reports_and_remarks() {
        let (server, _) = server();
        let alice = join(&server, "alice");
        let bob = join(&server, "bob");
        server.handle(
            &Request::RegisterSoftware {
                software_id: sw_id(1),
                file_name: "a.exe".into(),
                file_size: 1,
                company: None,
                version: None,
            },
            "alice",
        );
        server.handle(
            &Request::SubmitComment {
                session: alice,
                software_id: sw_id(1),
                text: "bundles a tracker".into(),
            },
            "alice",
        );
        let resp = server.handle(&Request::QueryDetails { software_id: sw_id(1) }, "bob");
        let Response::Software(info) = resp else { panic!("{resp:?}") };
        assert_eq!(info.comments.len(), 1);
        let comment_id = info.comments[0].id;

        assert_eq!(
            server
                .handle(&Request::RateComment { session: bob, comment_id, positive: true }, "bob"),
            Response::Ok
        );
        assert_eq!(server.db().trust_of("alice").unwrap().unwrap(), 2.0);
    }

    #[test]
    fn evidence_endpoint_requires_the_analyzer_token() {
        let (server, _) = server_with(ServerConfig {
            puzzle_difficulty: 0,
            analyzer_token: Some("lab-secret".into()),
            ..ServerConfig::default()
        });
        server.handle(
            &Request::RegisterSoftware {
                software_id: sw_id(1),
                file_name: "a.exe".into(),
                file_size: 1,
                company: None,
                version: None,
            },
            "lab",
        );
        // Wrong token rejected.
        let resp = server.handle(
            &Request::SubmitEvidence {
                analyzer_token: "wrong".into(),
                software_id: sw_id(1),
                behaviours: vec!["tracking".into()],
                analyzer: "sandbox-v1".into(),
            },
            "lab",
        );
        assert!(matches!(resp, Response::Error { ref code, .. } if code == "bad-analyzer-token"));

        // Right token lands and surfaces as verified behaviours.
        let resp = server.handle(
            &Request::SubmitEvidence {
                analyzer_token: "lab-secret".into(),
                software_id: sw_id(1),
                behaviours: vec!["tracking".into()],
                analyzer: "sandbox-v1".into(),
            },
            "lab",
        );
        assert_eq!(resp, Response::Ok);
        let Response::Software(info) =
            server.handle(&Request::QuerySoftware { software_id: sw_id(1) }, "q")
        else {
            panic!("expected report")
        };
        assert_eq!(info.verified_behaviours, vec!["tracking".to_string()]);
    }

    #[test]
    fn evidence_endpoint_disabled_without_configured_token() {
        let (server, _) =
            server_with(ServerConfig { puzzle_difficulty: 0, ..ServerConfig::default() });
        let resp = server.handle(
            &Request::SubmitEvidence {
                analyzer_token: String::new(),
                software_id: sw_id(1),
                behaviours: vec![],
                analyzer: "x".into(),
            },
            "lab",
        );
        assert!(matches!(resp, Response::Error { ref code, .. } if code == "bad-analyzer-token"));
    }

    #[test]
    fn feed_lifecycle_over_the_protocol() {
        let (server, _) = server();
        let alice = join(&server, "alice");
        let bob = join(&server, "bob");
        server.handle(
            &Request::RegisterSoftware {
                software_id: sw_id(1),
                file_name: "a.exe".into(),
                file_size: 1,
                company: None,
                version: None,
            },
            "x",
        );

        assert_eq!(
            server.handle(
                &Request::CreateFeed { session: alice.clone(), name: "sec-team".into() },
                "a"
            ),
            Response::Ok
        );
        // Bob cannot publish into Alice's feed.
        let resp = server.handle(
            &Request::PublishFeedEntry {
                session: bob,
                feed: "sec-team".into(),
                software_id: sw_id(1),
                rating: 2.0,
                behaviours: vec![],
            },
            "b",
        );
        assert!(matches!(resp, Response::Error { ref code, .. } if code == "not-feed-owner"));

        assert_eq!(
            server.handle(
                &Request::PublishFeedEntry {
                    session: alice,
                    feed: "sec-team".into(),
                    software_id: sw_id(1),
                    rating: 2.0,
                    behaviours: vec!["popup_ads".into()],
                },
                "a",
            ),
            Response::Ok
        );
        let resp = server.handle(
            &Request::QueryFeedEntry { feed: "sec-team".into(), software_id: sw_id(1) },
            "q",
        );
        assert_eq!(
            resp,
            Response::FeedEntry {
                feed: "sec-team".into(),
                software_id: sw_id(1),
                rating: 2.0,
                behaviours: vec!["popup_ads".into()],
            }
        );
        // Missing entries answer with a stable error code.
        let resp = server.handle(
            &Request::QueryFeedEntry { feed: "sec-team".into(), software_id: sw_id(2) },
            "q",
        );
        assert!(matches!(resp, Response::Error { ref code, .. } if code == "unknown-feed-entry"));
    }

    #[test]
    fn vendor_query_round_trips() {
        let (server, _) = server();
        let session = join(&server, "alice");
        server.handle(
            &Request::RegisterSoftware {
                software_id: sw_id(1),
                file_name: "a.exe".into(),
                file_size: 1,
                company: Some("Acme".into()),
                version: None,
            },
            "alice",
        );
        server.handle(
            &Request::SubmitVote { session, software_id: sw_id(1), score: 6, behaviours: vec![] },
            "alice",
        );
        server.db().force_aggregation(server.now()).unwrap();
        let resp = server.handle(&Request::QueryVendor { vendor: "Acme".into() }, "x");
        assert_eq!(
            resp,
            Response::Vendor { vendor: "Acme".into(), rating: Some(6.0), software_count: 1 }
        );
    }

    /// The worst case [`MAX_BEHAVIOURS`] documents: every field at
    /// its bound and every byte escaped to a 6-byte entity. The report
    /// lists the most reported behaviours first, up to the cap, and its
    /// answer stays within the documented size.
    #[test]
    fn a_worst_case_report_fits_the_documented_bound() {
        let (server, _) = server_with(ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        });
        let field = "'".repeat(softrep_core::model::MAX_SOFTWARE_FIELD_LEN);
        let db = server.db();
        let t0 = Timestamp(0);
        db.register_software(&sw_id(1), &field, 1, Some(field.clone()), Some(field.clone()), t0)
            .unwrap();
        let names: Vec<String> = (0..MAX_BEHAVIOURS)
            .map(|i| format!("{i:02}{}", "'".repeat(softrep_core::model::MAX_BEHAVIOUR_LEN - 2)))
            .collect();
        for member in ["alice", "bob", "carol"] {
            let session = join(&server, member);
            let behaviours = if member == "alice" { names.clone() } else { vec!["popular".into()] };
            let vote = Request::SubmitVote { session, software_id: sw_id(1), score: 5, behaviours };
            assert_eq!(server.handle(&vote, member), Response::Ok);
        }
        db.record_evidence(&sw_id(1), names.clone(), "sandbox", t0).unwrap();
        let text = "'".repeat(4096);
        for _ in 0..server.config().max_comments_in_report {
            db.submit_comment("alice", &sw_id(1), &text, t0).unwrap();
        }
        db.force_aggregation(server.now()).unwrap();

        let resp = server.handle(&Request::QuerySoftware { software_id: sw_id(1) }, "q");
        let size = resp.encode().len();
        let Response::Software(info) = resp else { panic!("{resp:?}") };
        assert_eq!(info.behaviours.len(), MAX_BEHAVIOURS);
        assert_eq!(info.behaviours[0], "popular", "most reported first");
        assert_eq!(info.verified_behaviours.len(), MAX_BEHAVIOURS);
        assert_eq!(info.comments.len(), 10);
        assert!(size <= 278_515, "{size} bytes exceeds the documented bound");
    }
}
