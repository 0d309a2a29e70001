//! The benchmark's server, assembled in one place for both the server
//! process (`perfbench-server`) and the traced in-process replay, so the
//! two measure the same server.
//!
//! The calls are those of the deployment binary
//! (`src/bin/softrep_serverd.rs`): `ReputationDb::new`,
//! `ReputationServer::new` with a 1024-bit pseudonym key and difficulty-12
//! puzzles, then `FrontendServer::spawn_with` with the default config (the
//! epoll front end) and `WebServer::spawn`. The one difference is the RNG
//! seed, [`SERVER_SEED`] instead of one drawn from the OS.

use std::sync::Arc;

use softrep_core::clock::SystemClock;
use softrep_core::db::ReputationDb;
use softrep_crypto::salted::SecretPepper;
use softrep_server::tcp::{FrontendServer, TcpServerConfig};
use softrep_server::web::WebServer;
use softrep_server::{ReputationServer, ServerConfig};
use softrep_storage::Store;

use crate::workload::{PEPPER, SERVER_SEED};

/// The reputation server over `store`, its 1024-bit keygen included.
pub fn assemble(store: Arc<Store>) -> Arc<ReputationServer> {
    let db = ReputationDb::new(store, SecretPepper::new(PEPPER.as_bytes().to_vec()));
    Arc::new(ReputationServer::new(
        db,
        Arc::new(SystemClock),
        ServerConfig { puzzle_difficulty: 12, pseudonym_key_bits: 1024, ..ServerConfig::default() },
        SERVER_SEED,
    ))
}

/// The protocol and web front ends of a running server.
pub struct Frontends {
    /// The protocol front end.
    pub tcp: FrontendServer,
    /// The web interface, which serves `/metrics`.
    pub web: WebServer,
}

/// Serve `server` on `proto` and `web`; `replica_of` names the primary a
/// replica follows.
pub fn serve(
    server: &Arc<ReputationServer>,
    proto: &str,
    web: &str,
    replica_of: Option<String>,
) -> Result<Frontends, String> {
    let config = TcpServerConfig { replica_of, ..TcpServerConfig::default() };
    let tcp = FrontendServer::spawn_with(Arc::clone(server), proto, config)
        .map_err(|e| format!("cannot bind protocol address {proto}: {e}"))?;
    let web = WebServer::spawn(Arc::clone(server), web)
        .map_err(|e| format!("cannot bind web address {web}: {e}"))?;
    Ok(Frontends { tcp, web })
}
