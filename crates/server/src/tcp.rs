//! TCP front end: framed XML over `std::net`, served by a bounded worker
//! pool.
//!
//! Used by the networked examples and the deployment binary; the agent
//! simulations call [`crate::handler::ReputationServer::handle`]
//! in-process for speed. Robustness properties (§2.1's availability
//! requirement):
//!
//! * **Bounded concurrency** — at most
//!   [`TcpServerConfig::max_connections`] workers; excess connections get
//!   an immediate `overloaded` error frame and are closed instead of
//!   spawning unboundedly.
//! * **Connection deadlines** — per-connection read/write timeouts so a
//!   dead or silent peer cannot pin a worker forever.
//! * **Graceful shutdown** — stop accepting (a self-connect nudge wakes
//!   the blocking accept immediately), drain in-flight requests up to
//!   [`TcpServerConfig::drain_deadline`], then force-close stragglers and
//!   join every worker handle.
//! * **Flood identity** — the flood guard is keyed on a *pseudonymized
//!   tag of the peer IP only* (`ReputationDb::pseudonym_tag`). Keying on
//!   `ip:port` would mint a fresh token bucket per reconnect, letting a
//!   reconnect-per-request flooder bypass throttling entirely; keying on
//!   the raw IP would let an address outlive the connection inside the
//!   bucket map. The raw address is observed only transiently at the
//!   accept boundary, hashed under the server's secret pepper, and never
//!   flows further (§2.2) — the `taint` lint pass enforces this.
//!
//! Everything the front end does is counted in [`ServerStats`], so tests
//! and experiments can assert throttling instead of guessing.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use softrep_obs::span::{self, SpanFamily};
use softrep_proto::framing::{read_frame_into, write_frame_with, FrameError};
use softrep_proto::{Request, Response};

use crate::handler::ReputationServer;
use crate::pool::WorkerPool;
use crate::stats::{ServerStats, StatsSnapshot};

/// Which serving architecture a [`FrontendServer`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// Thread-per-connection over a bounded worker pool: portable, simple,
    /// capacity-bounded by [`TcpServerConfig::max_connections`] threads.
    Threads,
    /// Single epoll event loop plus a bounded dispatch pool: Linux only,
    /// capacity-bounded by [`TcpServerConfig::max_open_connections`]
    /// connection *states* instead of threads.
    #[cfg(target_os = "linux")]
    Epoll,
}

impl Default for Frontend {
    /// The reactor where it exists, threads elsewhere.
    fn default() -> Self {
        #[cfg(target_os = "linux")]
        {
            Frontend::Epoll
        }
        #[cfg(not(target_os = "linux"))]
        {
            Frontend::Threads
        }
    }
}

impl std::str::FromStr for Frontend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Frontend::Threads),
            #[cfg(target_os = "linux")]
            "epoll" => Ok(Frontend::Epoll),
            #[cfg(not(target_os = "linux"))]
            "epoll" => Err("the epoll front end is only available on Linux".to_string()),
            other => Err(format!("unknown frontend '{other}' (expected 'threads' or 'epoll')")),
        }
    }
}

/// Tuning knobs for the TCP front end (both architectures; each knob says
/// which front end reads it).
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Which serving architecture [`FrontendServer::spawn_with`] starts.
    /// [`TcpServer`]/[`crate::reactor::ReactorServer`] spawned directly
    /// ignore this.
    pub frontend: Frontend,
    /// Threads front end: maximum concurrently served connections (= pool
    /// threads); one beyond this is answered with an `overloaded` error
    /// frame and closed.
    pub max_connections: usize,
    /// Epoll front end: maximum concurrently *open* connections; one
    /// beyond this is answered with an `overloaded` error frame and
    /// closed. Idle connections only hold a buffer pair, so this can sit
    /// orders of magnitude above `max_connections`.
    pub max_open_connections: usize,
    /// Epoll front end: handler threads executing requests off the event
    /// loop.
    pub dispatch_workers: usize,
    /// A connection idle (no complete frame) past this deadline is
    /// dropped, freeing its worker.
    pub read_timeout: Duration,
    /// A peer that will not accept response bytes past this deadline is
    /// dropped.
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight requests before force-closing
    /// remaining connections.
    pub drain_deadline: Duration,
    /// `Some(primary_addr)` runs this node as a read replica:
    /// [`FrontendServer::spawn_with`] marks the handler so writes get a
    /// `not-primary` redirect carrying this address. Starting the tail
    /// that actually pulls the primary's log is the caller's job (see
    /// [`crate::repl::ReplicaTail`]); the deployment binary does both.
    pub replica_of: Option<String>,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig {
            frontend: Frontend::default(),
            max_connections: 64,
            max_open_connections: 10_240,
            dispatch_workers: 8,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            replica_of: None,
        }
    }
}

/// A running server behind either front end, selected by
/// [`TcpServerConfig::frontend`]. Both variants speak the same framed XML
/// protocol, account into the same [`ServerStats`], and drain on
/// [`FrontendServer::shutdown`] — tests parameterize over this to prove
/// the two architectures are observationally equivalent.
pub enum FrontendServer {
    /// Thread-per-connection ([`TcpServer`]).
    Threads(TcpServer),
    /// Epoll reactor ([`crate::reactor::ReactorServer`]).
    #[cfg(target_os = "linux")]
    Epoll(crate::reactor::ReactorServer),
}

impl FrontendServer {
    /// Bind `addr` and serve with the default config (reactor on Linux).
    pub fn spawn(server: Arc<ReputationServer>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        FrontendServer::spawn_with(server, addr, TcpServerConfig::default())
    }

    /// Bind `addr` and serve with the front end `config.frontend` names.
    pub fn spawn_with(
        server: Arc<ReputationServer>,
        addr: impl ToSocketAddrs,
        config: TcpServerConfig,
    ) -> std::io::Result<Self> {
        if let Some(primary) = &config.replica_of {
            server.repl_state().set_replica_of(primary.clone());
        }
        match config.frontend {
            Frontend::Threads => {
                Ok(FrontendServer::Threads(TcpServer::spawn_with(server, addr, config)?))
            }
            #[cfg(target_os = "linux")]
            Frontend::Epoll => Ok(FrontendServer::Epoll(
                crate::reactor::ReactorServer::spawn_with(server, addr, config)?,
            )),
        }
    }

    /// The bound address (use port 0 to get an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        match self {
            FrontendServer::Threads(s) => s.local_addr(),
            #[cfg(target_os = "linux")]
            FrontendServer::Epoll(s) => s.local_addr(),
        }
    }

    /// A consistent snapshot of the transport counters.
    pub fn stats(&self) -> StatsSnapshot {
        match self {
            FrontendServer::Threads(s) => s.stats(),
            #[cfg(target_os = "linux")]
            FrontendServer::Epoll(s) => s.stats(),
        }
    }

    /// A handle to the live counters, usable after shutdown consumes the
    /// server.
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        match self {
            FrontendServer::Threads(s) => s.stats_handle(),
            #[cfg(target_os = "linux")]
            FrontendServer::Epoll(s) => s.stats_handle(),
        }
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        match self {
            FrontendServer::Threads(s) => s.active_connections(),
            #[cfg(target_os = "linux")]
            FrontendServer::Epoll(s) => s.active_connections(),
        }
    }

    /// Stop accepting, drain in-flight requests, and join every thread.
    pub fn shutdown(self) {
        match self {
            FrontendServer::Threads(s) => s.shutdown(),
            #[cfg(target_os = "linux")]
            FrontendServer::Epoll(s) => s.shutdown(),
        }
    }
}

/// Live connections indexed by id, kept so shutdown can force-close
/// stragglers that are blocked reading from silent peers.
#[derive(Default)]
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    next_id: u64,
    conns: HashMap<u64, TcpStream>,
}

impl ConnRegistry {
    /// Track a clone of `stream`; `None` when the clone fails (the
    /// connection is still served, just not force-closable).
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id = inner.next_id.wrapping_add(1);
        inner.conns.insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.inner.lock().conns.remove(&id);
    }

    /// Shut down every tracked socket, unblocking workers stuck in reads.
    fn close_all(&self) {
        for conn in self.inner.lock().conns.values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A running TCP server.
pub struct TcpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    pool: Arc<WorkerPool>,
    stats: Arc<ServerStats>,
    registry: Arc<ConnRegistry>,
    drain_deadline: Duration,
}

impl TcpServer {
    /// Bind `addr` and serve `server` with [`TcpServerConfig::default`]
    /// until [`TcpServer::shutdown`].
    pub fn spawn(server: Arc<ReputationServer>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        TcpServer::spawn_with(server, addr, TcpServerConfig::default())
    }

    /// Bind `addr` and serve `server` with explicit tuning knobs.
    pub fn spawn_with(
        server: Arc<ReputationServer>,
        addr: impl ToSocketAddrs,
        config: TcpServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Register the latency series at bind time so `/metrics` exposes
        // it (at zero) before the first request arrives.
        let _ = request_spans();
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(WorkerPool::new(config.max_connections));
        // Share the handler's counter sink, so `/metrics` renders the
        // transport events this front end records.
        let stats = server.stats_handle();
        let registry = Arc::new(ConnRegistry::default());

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_pool = Arc::clone(&pool);
        let accept_stats = Arc::clone(&stats);
        let accept_registry = Arc::clone(&registry);
        let accept_config = config.clone();
        let accept_thread = std::thread::Builder::new()
            .name("softrep-tcp-accept".to_string())
            .spawn(move || {
                // Blocking accept; shutdown() wakes it with a self-connect
                // nudge, so there is no sleep-poll burning CPU and no
                // latency between the flag flipping and the loop exiting.
                loop {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            if accept_shutdown.load(Ordering::SeqCst) {
                                break; // the nudge itself, or a late client
                            }
                            handle_accept(
                                &server,
                                &accept_pool,
                                &accept_stats,
                                &accept_registry,
                                &accept_shutdown,
                                &accept_config,
                                stream,
                                peer,
                            );
                        }
                        Err(_) if accept_shutdown.load(Ordering::SeqCst) => break,
                        Err(_) => {
                            // Transient accept failure (e.g. fd exhaustion):
                            // back off briefly rather than spinning.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })?;

        Ok(TcpServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            pool,
            stats,
            registry,
            drain_deadline: config.drain_deadline,
        })
    }

    /// The bound address (use port 0 to get an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A consistent snapshot of the transport counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// A handle to the live counters, usable after shutdown consumes the
    /// server.
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Connections being served right now.
    pub fn active_connections(&self) -> usize {
        self.pool.active()
    }

    /// Stop accepting, drain in-flight requests up to the configured
    /// deadline, force-close stragglers, and join every worker.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return; // already shut down
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept immediately.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(250));
        let _ = handle.join();
        // Give in-flight requests the drain deadline; then force-close
        // whatever is left (idle keep-alive peers, silent sockets) and
        // join the unblocked workers.
        if !self.pool.join_deadline(self.drain_deadline) {
            self.registry.close_all();
            let _ = self.pool.join_deadline(self.drain_deadline.max(Duration::from_millis(250)));
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_accept(
    server: &Arc<ReputationServer>,
    pool: &Arc<WorkerPool>,
    stats: &Arc<ServerStats>,
    registry: &Arc<ConnRegistry>,
    shutdown: &Arc<AtomicBool>,
    config: &TcpServerConfig,
    stream: TcpStream,
    peer: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));

    let Some(permit) = pool.try_acquire() else {
        // Shed load explicitly: tell the peer why, then close. Never
        // spawn beyond the bound.
        stats.record_rejected_overload();
        let mut writer = stream;
        let overloaded =
            Response::error("overloaded", "server is at connection capacity; retry later");
        let _ = write_frame_with(&mut writer, &overloaded.encode(), &mut Vec::new());
        return;
    };

    // The flood-guard identity is a pseudonymized tag of the peer IP
    // only — see module docs. The raw address stops here.
    let peer_tag = server.db().pseudonym_tag("peer", &peer.ip().to_string());
    let reg_id = registry.register(&stream);
    let worker_server = Arc::clone(server);
    let worker_stats = Arc::clone(stats);
    let worker_registry = Arc::clone(registry);
    let worker_shutdown = Arc::clone(shutdown);
    let spawned = pool.spawn(permit, move || {
        worker_stats.record_accepted();
        let _ =
            serve_connection(&worker_server, stream, &peer_tag, &worker_stats, &worker_shutdown);
        if let Some(id) = reg_id {
            worker_registry.deregister(id);
        }
        worker_stats.record_closed();
    });
    if spawned.is_err() {
        // Thread creation failed: the closure (and stream) were dropped,
        // closing the connection; account for it and untrack the clone.
        stats.record_rejected_overload();
        if let Some(id) = reg_id {
            registry.deregister(id);
        }
    }
}

fn serve_connection(
    server: &ReputationServer,
    stream: TcpStream,
    peer_tag: &str,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) -> Result<(), FrameError> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Frame buffers live for the connection: steady-state requests
    // allocate nothing in the framing layer.
    let mut body = Vec::new();
    let mut scratch = Vec::new();
    loop {
        match read_frame_into(&mut reader, &mut body) {
            Ok(()) => {}
            Err(FrameError::Closed) => return Ok(()),
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                stats.record_timed_out();
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        // read_frame_into validated UTF-8; this can only fail if the
        // buffer was corrupted between the two calls.
        let text = std::str::from_utf8(&body).map_err(|_| FrameError::NotUtf8)?;
        // Every request gets a process-unique id (slow-op attribution);
        // the latency span itself is 1-in-N sampled.
        let _scope = span::RequestScope::enter(span::next_request_id());
        let timer = request_spans().maybe_start();
        let response = match Request::decode(text) {
            Ok(request) => server.handle(&request, peer_tag),
            Err(e) => Response::error("bad-request", e.to_string()),
        };
        write_frame_with(&mut writer, &response.encode(), &mut scratch)?;
        drop(timer);
        stats.record_request_served();
        // Drain semantics: the request already in flight is answered, then
        // the connection closes so shutdown can complete.
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Sampled latency spans for the decode → handle → respond cycle. The
/// span lives at the transport layer, not in `handle()`, so the in-memory
/// dispatch path stays clock-free; socket turnaround dwarfs the sampled
/// `Instant` reads that do happen. Shared with the reactor front end so
/// `softrep_request_latency_us` covers both architectures.
pub(crate) fn request_spans() -> &'static SpanFamily {
    static FAMILY: std::sync::OnceLock<SpanFamily> = std::sync::OnceLock::new();
    FAMILY.get_or_init(|| {
        SpanFamily::sampled(
            "tcp_request",
            softrep_obs::registry().histogram("softrep_request_latency_us"),
        )
    })
}

/// A blocking protocol client for the TCP front end.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Response-body buffer, reused across calls.
    body: Vec<u8>,
    /// Outgoing-frame scratch, reused across calls.
    scratch: Vec<u8>,
}

impl TcpClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        TcpClient::from_stream(TcpStream::connect(addr)?)
    }

    /// Wrap an already-connected stream (used by the retrying connector,
    /// which owns connect timeouts).
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        let writer = stream.try_clone()?;
        Ok(TcpClient {
            reader: BufReader::new(stream),
            writer,
            body: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Apply read/write deadlines to the underlying socket.
    pub fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(read)?;
        self.writer.set_write_timeout(write)
    }

    /// Send a request and wait for its response. A response frame that
    /// does not decode is a hard protocol error: the stream may be
    /// desynchronized, so the caller must not keep using this connection.
    pub fn call(&mut self, request: &Request) -> Result<Response, FrameError> {
        write_frame_with(&mut self.writer, &request.encode(), &mut self.scratch)?;
        read_frame_into(&mut self.reader, &mut self.body)?;
        let text = std::str::from_utf8(&self.body).map_err(|_| FrameError::NotUtf8)?;
        Response::decode(text).map_err(|e| FrameError::Decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softrep_proto::framing::{read_frame, write_frame};

    use softrep_core::clock::SimClock;
    use softrep_core::db::ReputationDb;
    use softrep_crypto::puzzle::Challenge;

    use crate::handler::ServerConfig;

    fn spawn_server() -> (TcpServer, Arc<ReputationServer>) {
        let clock = SimClock::new();
        let db = ReputationDb::in_memory("tcp-pepper");
        let server = Arc::new(ReputationServer::new(
            db,
            Arc::new(clock),
            ServerConfig { puzzle_difficulty: 2, ..ServerConfig::default() },
            7,
        ));
        let tcp = TcpServer::spawn(Arc::clone(&server), "127.0.0.1:0").unwrap();
        (tcp, server)
    }

    #[test]
    fn end_to_end_over_real_sockets() {
        let (tcp, server) = spawn_server();
        let mut client = TcpClient::connect(tcp.local_addr()).unwrap();

        // Register through the real transport.
        let Response::Puzzle { challenge } = client.call(&Request::GetPuzzle).unwrap() else {
            panic!("expected puzzle")
        };
        let (solution, _) = Challenge::decode(&challenge).unwrap().solve();
        let resp = client
            .call(&Request::Register {
                username: "netuser".into(),
                password: "pw".into(),
                email: "net@example.com".into(),
                puzzle_challenge: challenge,
                puzzle_solution: solution.nonce,
            })
            .unwrap();
        let Response::Registered { activation_token } = resp else { panic!("{resp:?}") };
        assert_eq!(
            client
                .call(&Request::Activate { username: "netuser".into(), token: activation_token })
                .unwrap(),
            Response::Ok
        );
        let Response::Session { token } = client
            .call(&Request::Login { username: "netuser".into(), password: "pw".into() })
            .unwrap()
        else {
            panic!("expected session")
        };

        let sw = "ab".repeat(20);
        client
            .call(&Request::RegisterSoftware {
                software_id: sw.clone(),
                file_name: "net.exe".into(),
                file_size: 5,
                company: None,
                version: None,
            })
            .unwrap();
        assert_eq!(
            client
                .call(&Request::SubmitVote {
                    session: token,
                    software_id: sw.clone(),
                    score: 9,
                    behaviours: vec![],
                })
                .unwrap(),
            Response::Ok
        );
        server.db().force_aggregation(server.now()).unwrap();

        let resp = client.call(&Request::QuerySoftware { software_id: sw }).unwrap();
        let Response::Software(info) = resp else { panic!("{resp:?}") };
        assert_eq!(info.rating, Some(9.0));

        let stats = tcp.stats();
        assert_eq!(stats.accepted, 1);
        assert!(stats.requests_served >= 6);
        assert_eq!(stats.rejected_overload, 0);

        tcp.shutdown();
    }

    #[test]
    fn malformed_frames_get_error_responses() {
        let (tcp, _server) = spawn_server();
        let stream = TcpStream::connect(tcp.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_frame(&mut writer, "this is not xml").unwrap();
        let body = read_frame(&mut reader).unwrap();
        let resp = Response::decode(&body).unwrap();
        assert!(matches!(resp, Response::Error { ref code, .. } if code == "bad-request"));
        tcp.shutdown();
    }

    #[test]
    fn multiple_concurrent_clients() {
        let (tcp, _server) = spawn_server();
        let addr = tcp.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = TcpClient::connect(addr).unwrap();
                    for _ in 0..5 {
                        let resp = client
                            .call(&Request::QuerySoftware { software_id: "cd".repeat(20) })
                            .unwrap();
                        assert!(matches!(resp, Response::UnknownSoftware { .. }));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // A client can observe its reply a moment before the worker
        // increments `served`; give the counter a bounded beat to settle.
        let sw = softrep_obs::time::Stopwatch::start();
        while tcp.stats().requests_served < 20 && sw.elapsed_micros() < 2_000_000 {
            std::thread::yield_now();
        }
        let stats = tcp.stats();
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.requests_served, 20);
        tcp.shutdown();
    }

    #[test]
    fn undecodable_server_response_is_a_decode_error_not_a_synthetic_ok() {
        // A hand-rolled "server" that answers one frame with well-framed
        // garbage: the client must surface a decode error (the stream may
        // be desynchronized) rather than fabricating an Ok response.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bogus = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let _ = read_frame(&mut reader).unwrap();
            write_frame(&mut writer, "<<<this is not a Response>>>").unwrap();
        });

        let mut client = TcpClient::connect(addr).unwrap();
        let err = client.call(&Request::GetPuzzle).unwrap_err();
        assert!(matches!(err, FrameError::Decode(_)), "got {err:?}");
        bogus.join().unwrap();
    }

    #[test]
    fn shutdown_joins_all_workers_and_stops_accepting() {
        let (tcp, _server) = spawn_server();
        let addr = tcp.local_addr();
        let mut client = TcpClient::connect(addr).unwrap();
        let resp = client.call(&Request::QuerySoftware { software_id: "cd".repeat(20) }).unwrap();
        assert!(matches!(resp, Response::UnknownSoftware { .. }));

        let stats = tcp.stats_handle();
        tcp.shutdown();
        // Every accepted connection has been closed and joined.
        let s = stats.snapshot();
        assert_eq!(s.active, 0, "shutdown must drain every worker: {s:?}");
        assert_eq!(s.accepted, s.closed);
        // And the port no longer accepts protocol traffic.
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(_) => {}
            Ok(stream) => {
                // A connect may still succeed transiently; the server side
                // must not answer frames any more.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let _ = write_frame(&mut writer, "<request><get-puzzle/></request>");
                assert!(read_frame(&mut reader).is_err(), "no worker should answer");
            }
        }
    }
}
