#![warn(missing_docs)]

//! The reputation server (§3.2 of the paper).
//!
//! "The server … handles the database containing registered user
//! information, ratings and comments for different software … The clients
//! communicate with the server through a web-server that handles the
//! requests sent by the client software."
//!
//! * [`session`] — bearer-token sessions issued at login.
//! * [`puzzle_gate`] — issues and redeems registration puzzles (§5's
//!   "computational penalties through variable hash guessing"), single-use
//!   and server-bound.
//! * [`flood`] — a per-identity token-bucket rate limiter; the transport-
//!   level half of the §2.1 vote-flooding defence.
//! * [`handler`] — [`handler::ReputationServer`]: the full request
//!   dispatcher mapping protocol [`softrep_proto::Request`]s onto the
//!   reputation database.
//! * [`pseudonym_key`] — the §5 blind-signature key, made on first use
//!   and kept in the store directory so credentials outlive a restart.
//! * [`pool`] — a bounded worker pool: explicit admission control instead
//!   of unbounded thread-per-connection spawning.
//! * [`stats`] — transport counters (accepted / active / rejected /
//!   timed-out / served) so load-shedding is measurable, not guessed.
//! * [`tcp`] — the thread-per-connection TCP front end speaking the
//!   framed XML protocol over a bounded worker pool, with connection
//!   deadlines and graceful, handle-joining shutdown; also home of the
//!   request path both servers share and of [`tcp::FrontendServer`],
//!   which starts the reactor on Linux and threads elsewhere.
//! * [`epoll`] (Linux) — a minimal typed wrapper over raw
//!   `epoll`/`eventfd`/`fcntl` syscalls, declared by hand so the
//!   workspace stays dependency-free.
//! * [`reactor`] (Linux) — the event-driven front end: one epoll loop
//!   driving per-connection state machines, a timer wheel for deadlines,
//!   and a bounded dispatch pool for handler execution; 1024+ concurrent
//!   connections where the thread front end sheds at 64.
//! * [`web`] — the §3 read-only web interface: searching, software and
//!   vendor detail pages, deployment statistics.
//! * [`repl`] — WAL-shipping replication (DESIGN.md §15): the primary's
//!   subscription/snapshot endpoints and [`repl::ReplicaTail`], the
//!   loop that keeps a read replica's store current.

// A panic on the request path turns one hostile frame or bad record into
// an outage: these lints hold outside tests (every module of this crate).
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

#[cfg(target_os = "linux")]
pub mod epoll;
pub mod flood;
pub mod handler;
pub mod pool;
pub mod pseudonym_key;
pub mod puzzle_gate;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod repl;
pub mod session;
pub mod stats;
pub mod tcp;
pub mod web;

pub use flood::FloodGuard;
pub use handler::{ReputationServer, ServerConfig};
pub use pool::{DispatchPool, PoolRejected, WorkerPool};
#[cfg(target_os = "linux")]
pub use reactor::ReactorServer;
pub use repl::{ReplicaTail, ReplicaTailConfig};
pub use session::SessionManager;
pub use stats::{ServerStats, StatsSnapshot};
pub use tcp::{FrontendServer, TcpClient, TcpServer, TcpServerConfig};
